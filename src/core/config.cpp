#include "core/config.hpp"

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
