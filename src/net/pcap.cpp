#include "net/pcap.hpp"

#include <fstream>

#include "util/fsio.hpp"

namespace malnet::net {

namespace {
constexpr std::uint32_t kMagicBe = 0xA1B2C3D4;  // microsecond timestamps
constexpr std::uint32_t kLinktypeRaw = 101;     // raw IPv4
}  // namespace

PcapWriter::PcapWriter() {
  buf_.u32(kMagicBe);
  buf_.u16(2);   // version major
  buf_.u16(4);   // version minor
  buf_.u32(0);   // thiszone
  buf_.u32(0);   // sigfigs
  buf_.u32(65535);  // snaplen
  buf_.u32(kLinktypeRaw);
}

void PcapWriter::add(const Packet& p) {
  const util::Bytes wire = to_wire(p);
  const auto sec = static_cast<std::uint32_t>(p.time.us / 1'000'000);
  const auto usec = static_cast<std::uint32_t>(p.time.us % 1'000'000);
  buf_.u32(sec);
  buf_.u32(usec);
  buf_.u32(static_cast<std::uint32_t>(wire.size()));  // incl_len
  buf_.u32(static_cast<std::uint32_t>(wire.size()));  // orig_len
  buf_.raw(wire);
  ++count_;
}

void PcapWriter::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("PcapWriter::save: cannot open " + path);
  f.write(reinterpret_cast<const char*>(buf_.bytes().data()),
          static_cast<std::streamsize>(buf_.bytes().size()));
  if (!f) throw std::runtime_error("PcapWriter::save: write failed for " + path);
}

std::vector<Packet> read_pcap(util::BytesView data) {
  util::ByteReader r(data);
  const std::uint32_t magic = r.u32();
  if (magic != kMagicBe) throw util::TruncatedInput("read_pcap: bad magic");
  r.skip(16);  // version, zone, sigfigs, snaplen
  const std::uint32_t linktype = r.u32();
  if (linktype != kLinktypeRaw) throw util::TruncatedInput("read_pcap: bad linktype");
  std::vector<Packet> out;
  while (!r.done()) {
    const std::uint32_t sec = r.u32();
    const std::uint32_t usec = r.u32();
    const std::uint32_t incl = r.u32();
    r.skip(4);  // orig_len
    const util::Bytes wire = r.raw(incl);
    auto p = from_wire(wire);
    if (!p) throw util::TruncatedInput("read_pcap: unparseable packet");
    p->time = util::SimTime{static_cast<std::int64_t>(sec) * 1'000'000 + usec};
    out.push_back(std::move(*p));
  }
  return out;
}

std::vector<Packet> load_pcap(const std::string& path) {
  return read_pcap(util::read_file(path));
}

}  // namespace malnet::net
