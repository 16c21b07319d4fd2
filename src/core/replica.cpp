#include "core/replica.hpp"

namespace m2::core {

RxCost Replica::rx_cost(const net::Payload& payload) const {
  return RxCost{0, core::rx_cost(payload.wire_size())};
}

}  // namespace m2::core
