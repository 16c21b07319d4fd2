// Cluster spec files: the JSON form of m2::Config (format at Config::parse).
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "m2/config.hpp"
#include "stats/json.hpp"

namespace m2 {

namespace {

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

/// Checks that `obj` has no keys outside `allowed` (typo guard).
bool only_keys(const stats::Json& obj,
               std::initializer_list<std::string_view> allowed,
               std::string* error) {
  for (const auto& [key, value] : obj.items()) {
    (void)value;
    bool ok = false;
    for (const auto a : allowed) ok = ok || key == a;
    if (!ok) return fail(error, "unknown key \"" + key + "\" in cluster spec");
  }
  return true;
}

bool parse_batching(const stats::Json& j, core::ClusterConfig::Batching* out,
                    std::string* error) {
  if (!j.is_object()) return fail(error, "\"batching\" must be an object");
  if (!only_keys(j,
                 {"enabled", "max_commands", "window_us", "max_bytes",
                  "pipeline_depth"},
                 error))
    return false;
  if (const auto* v = j.find("enabled")) out->enabled = v->boolean();
  if (const auto* v = j.find("max_commands"))
    out->batch_max_commands = static_cast<std::size_t>(v->integer());
  if (const auto* v = j.find("window_us"))
    out->batch_window = v->integer() * core::kMicrosecond;
  if (const auto* v = j.find("max_bytes"))
    out->batch_max_bytes = static_cast<std::size_t>(v->integer());
  if (const auto* v = j.find("pipeline_depth"))
    out->pipeline_depth = static_cast<int>(v->integer());
  return true;
}

bool parse_transport(const stats::Json& j, core::TransportOptions* out,
                     std::string* error) {
  if (!j.is_object()) return fail(error, "\"transport\" must be an object");
  if (!only_keys(j,
                 {"max_coalesce_bytes", "max_queue_bytes",
                  "connect_timeout_ms", "backoff_base_ms", "backoff_cap_ms",
                  "suspect_after", "down_after", "probe_interval_ms"},
                 error))
    return false;
  if (const auto* v = j.find("max_coalesce_bytes"))
    out->max_coalesce_bytes = static_cast<std::size_t>(v->integer());
  if (const auto* v = j.find("max_queue_bytes"))
    out->max_queue_bytes = static_cast<std::size_t>(v->integer());
  if (const auto* v = j.find("connect_timeout_ms"))
    out->connect_timeout = v->integer() * core::kMillisecond;
  if (const auto* v = j.find("backoff_base_ms"))
    out->backoff_base = v->integer() * core::kMillisecond;
  if (const auto* v = j.find("backoff_cap_ms"))
    out->backoff_cap = v->integer() * core::kMillisecond;
  if (const auto* v = j.find("suspect_after"))
    out->suspect_after = static_cast<int>(v->integer());
  if (const auto* v = j.find("down_after"))
    out->down_after = static_cast<int>(v->integer());
  if (const auto* v = j.find("probe_interval_ms"))
    out->probe_interval = v->integer() * core::kMillisecond;
  return true;
}

}  // namespace

bool Config::parse(std::string_view text, Config* out, std::string* error) {
  stats::Json doc;
  std::string parse_error;
  if (!stats::Json::parse(text, &doc, &parse_error))
    return fail(error, "spec is not valid JSON: " + parse_error);
  if (!doc.is_object()) return fail(error, "spec must be a JSON object");
  if (!only_keys(doc,
                 {"protocol", "seed", "nodes", "objects_per_node",
                  "enable_failure_detector", "batching", "transport"},
                 error))
    return false;

  Config cfg;
  cfg.backend = Backend::kTcp;
  cfg.objects_per_node = 0;
  if (const auto* v = doc.find("protocol")) {
    const auto p = core::parse_protocol(v->str());
    if (!p) return fail(error, "unknown protocol \"" + v->str() + "\"");
    cfg.protocol = *p;
  }
  if (const auto* v = doc.find("seed"))
    cfg.seed = static_cast<std::uint64_t>(v->integer());
  if (const auto* v = doc.find("enable_failure_detector"))
    cfg.enable_failure_detector = v->boolean();

  const auto* nodes = doc.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->elements().empty())
    return fail(error, "spec needs a non-empty \"nodes\" array");
  for (const auto& n : nodes->elements()) {
    const auto* host = n.find("host");
    const auto* port = n.find("port");
    if (host == nullptr || port == nullptr)
      return fail(error, "each node needs \"host\" and \"port\"");
    if (port->integer() <= 0 || port->integer() > 65535)
      return fail(error, "node port out of range");
    cfg.local_nodes.push_back(static_cast<NodeId>(cfg.addresses.size()));
    cfg.addresses.push_back(
        {host->str(), static_cast<std::uint16_t>(port->integer())});
  }
  cfg.nodes = static_cast<int>(cfg.addresses.size());

  if (const auto* v = doc.find("objects_per_node"))
    cfg.objects_per_node = static_cast<std::uint64_t>(v->integer());
  if (const auto* v = doc.find("batching")) {
    if (!parse_batching(*v, &cfg.tuning.batching, error)) return false;
  }
  if (const auto* v = doc.find("transport")) {
    if (!parse_transport(*v, &cfg.transport, error)) return false;
  }
  if (std::string problem = cfg.validate(); !problem.empty())
    return fail(error, std::move(problem));

  *out = std::move(cfg);
  return true;
}

bool Config::load(const std::string& path, Config* out, std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open spec file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), out, error);
}

}  // namespace m2
