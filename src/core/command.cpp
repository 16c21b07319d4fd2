#include "core/command.hpp"

#include "net/wire.hpp"

#include <algorithm>
#include <sstream>

namespace m2::core {

Command::Command(CommandId cid, ObjectList ls, std::uint32_t payload)
    : id(cid), objects(std::move(ls)), payload_bytes(payload) {
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
}

bool Command::conflicts_with(const Command& other) const {
  // Both object lists are sorted; linear merge intersection test.
  auto a = objects.begin();
  auto b = other.objects.begin();
  while (a != objects.end() && b != other.objects.end()) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

std::string Command::to_string() const {
  std::ostringstream os;
  os << "cmd(" << id.proposer() << ":" << id.seq() << " ls={";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (i > 0) os << ",";
    os << objects[i];
  }
  os << "})";
  return os.str();
}

std::size_t Command::wire_size() const {
  net::Counter n;
  net::Codec<Command>::put(n, *this);
  return n.size();
}

}  // namespace m2::core
