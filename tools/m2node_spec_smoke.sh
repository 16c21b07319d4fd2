#!/usr/bin/env bash
# Serve-mode smoke for m2node: writes a 3-node cluster spec on free
# localhost ports, serves all three nodes from one m2node process under
# load for 300 ms, and checks that commands committed.
#
# Usage: tools/m2node_spec_smoke.sh path/to/m2node
set -euo pipefail

m2node="$1"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Holds all three sockets open while reading their ports, so the ports are
# distinct; m2node binds them after they are released.
python3 - "$out/spec.json" <<'EOF'
import json, socket, sys
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
nodes = [{"host": "127.0.0.1", "port": s.getsockname()[1]} for s in socks]
for s in socks:
    s.close()
spec = {"protocol": "m2paxos", "nodes": nodes, "objects_per_node": 64}
json.dump(spec, open(sys.argv[1], "w"))
EOF

"$m2node" --spec "$out/spec.json" --node 0 --node 1 --node 2 --load 8 \
  --duration-ms 300 --json "$out/out.json"

python3 - "$out/out.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["protocol"] == "m2paxos", doc["protocol"]
committed = doc["results"]["committed"]
assert committed > 0, f"m2node committed {committed} commands"
print(f"m2node_spec_smoke: {committed} committed")
EOF
