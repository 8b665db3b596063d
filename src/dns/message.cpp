#include "dns/message.hpp"

#include <stdexcept>

#include "util/str.hpp"

namespace malnet::dns {

namespace {

/// Wire size of an encoded name: a length byte per label stands in for
/// each dot, plus the leading length byte and the root terminator.
std::size_t encoded_name_size(const std::string& name) { return name.size() + 2; }

void encode_name(util::ByteWriter& w, const std::string& name) {
  if (name.empty() || name.size() > 253) {
    throw std::invalid_argument("dns: bad name length");
  }
  std::string_view rest = name;
  while (true) {
    const auto dot = rest.find('.');
    const std::string_view label = rest.substr(0, dot);
    if (label.empty() || label.size() > 63) {
      throw std::invalid_argument("dns: bad label in " + name);
    }
    w.u8(static_cast<std::uint8_t>(label.size()));
    w.raw(label);
    if (dot == std::string_view::npos) break;
    rest.remove_prefix(dot + 1);
  }
  w.u8(0);
}

std::optional<std::string> decode_name(util::ByteReader& r) {
  std::string name;
  while (true) {
    const std::uint8_t len = r.u8();
    if (len == 0) break;
    if (len >= 0xC0) return std::nullopt;  // compression pointer: unsupported
    if (len > 63) return std::nullopt;
    if (!name.empty()) name += '.';
    name += r.str(len);
  }
  return name;
}

}  // namespace

util::Bytes encode(const Message& m) {
  std::size_t size = 12;  // header
  for (const auto& q : m.questions) size += encoded_name_size(q.name) + 4;
  for (const auto& a : m.answers) size += encoded_name_size(a.name) + 14;
  util::ByteWriter w;
  w.reserve(size);
  w.u16(m.id);
  std::uint16_t flags = 0;
  if (m.is_response) flags |= 0x8000;
  if (m.recursion_desired) flags |= 0x0100;
  if (m.is_response) flags |= 0x0080;  // recursion available
  flags |= static_cast<std::uint16_t>(m.rcode) & 0xF;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(0);  // NS count
  w.u16(0);  // AR count
  for (const auto& q : m.questions) {
    encode_name(w, q.name);
    w.u16(q.qtype);
    w.u16(q.qclass);
  }
  for (const auto& a : m.answers) {
    encode_name(w, a.name);
    w.u16(1);  // TYPE A
    w.u16(1);  // CLASS IN
    w.u32(a.ttl);
    w.u16(4);  // RDLENGTH
    w.u32(a.address.value);
  }
  return w.take();
}

std::optional<Message> decode(util::BytesView wire) {
  try {
    util::ByteReader r(wire);
    Message m;
    m.id = r.u16();
    const std::uint16_t flags = r.u16();
    m.is_response = flags & 0x8000;
    m.recursion_desired = flags & 0x0100;
    m.rcode = static_cast<Rcode>(flags & 0xF);
    const std::uint16_t qd = r.u16();
    const std::uint16_t an = r.u16();
    r.skip(4);  // NS + AR counts
    for (std::uint16_t i = 0; i < qd; ++i) {
      auto name = decode_name(r);
      if (!name) return std::nullopt;
      Question q;
      q.name = std::move(*name);
      q.qtype = r.u16();
      q.qclass = r.u16();
      m.questions.push_back(std::move(q));
    }
    for (std::uint16_t i = 0; i < an; ++i) {
      auto name = decode_name(r);
      if (!name) return std::nullopt;
      Answer a;
      a.name = std::move(*name);
      const std::uint16_t type = r.u16();
      r.skip(2);  // class
      a.ttl = r.u32();
      const std::uint16_t rdlen = r.u16();
      if (type == 1 && rdlen == 4) {
        a.address = net::Ipv4{r.u32()};
        m.answers.push_back(std::move(a));
      } else {
        r.skip(rdlen);  // non-A record: skip
      }
    }
    return m;
  } catch (const util::TruncatedInput&) {
    return std::nullopt;
  }
}

Message make_query(std::uint16_t id, const std::string& name) {
  Message m;
  m.id = id;
  m.questions.push_back(Question{name, 1, 1});
  return m;
}

Message make_response(const Message& query, std::optional<net::Ipv4> address) {
  Message m;
  m.id = query.id;
  m.is_response = true;
  m.questions = query.questions;
  if (address && !query.questions.empty()) {
    m.answers.push_back(Answer{query.questions.front().name, *address, 60});
  } else if (!address) {
    m.rcode = Rcode::kNxDomain;
  }
  return m;
}

}  // namespace malnet::dns
