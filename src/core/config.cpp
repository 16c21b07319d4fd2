#include "core/config.hpp"

#include <algorithm>
#include <cctype>

namespace m2::core {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kMultiPaxos:
      return "MultiPaxos";
    case Protocol::kGenPaxos:
      return "GenPaxos";
    case Protocol::kEPaxos:
      return "EPaxos";
    case Protocol::kM2Paxos:
      return "M2Paxos";
  }
  return "?";
}

std::string lower_name(Protocol p) {
  std::string name = to_string(p);
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return name;
}

std::optional<Protocol> parse_protocol(std::string_view name) {
  const auto same = [](unsigned char a, char b) {
    return std::tolower(a) == b;
  };
  for (const Protocol p : kProtocols) {
    const std::string lower = lower_name(p);
    if (std::equal(name.begin(), name.end(), lower.begin(), lower.end(), same))
      return p;
  }
  return std::nullopt;
}

std::string to_string(Backend b) {
  switch (b) {
    case Backend::kSim:
      return "sim";
    case Backend::kLoopback:
      return "loopback";
    case Backend::kTcp:
      return "tcp";
  }
  return "?";
}

}  // namespace m2::core
