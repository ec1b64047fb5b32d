#include "src/obs/run_report.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/obs/trace_analyzer.h"

namespace spotcheck {

std::string RunReport::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version");
  json.Int(kRunReportSchemaVersion);

  json.Key("label");
  json.String(label);

  json.Key("policy_spec");
  json.String(policy_spec);

  json.Key("summary");
  json.BeginObject();
  for (const auto& [name, value] : summary) {
    json.Key(name);
    json.Double(value);
  }
  json.EndObject();

  json.Key("chaos");
  json.BeginObject();
  json.Key("active");
  json.Bool(chaos_active);
  json.Key("level");
  json.Int(chaos_level);
  json.Key("seed");
  json.Int(static_cast<int64_t>(chaos_seed));
  json.EndObject();

  json.Key("trace_catalog");
  json.BeginObject();
  json.Key("hits");
  json.Int(trace_cache_hits);
  json.Key("misses");
  json.Int(trace_cache_misses);
  json.EndObject();

  json.Key("trace_summary");
  if (trace != nullptr) {
    AnalyzeTrace(*trace).WriteJson(json);
  } else {
    json.Null();
  }

  json.Key("profile");
  if (profile != nullptr) {
    profile->WriteJson(json);
  } else {
    json.Null();
  }

  json.Key("timeseries");
  if (timeseries != nullptr) {
    timeseries->WriteSummaryJson(json);
  } else {
    json.Null();
  }

  json.Key("metrics");
  if (metrics != nullptr) {
    metrics->WriteJson(json);
  } else {
    // Consumers iterate the metrics sections; an empty object keeps their
    // shape stable when a report was built without a registry.
    json.BeginObject();
    json.EndObject();
  }

  json.Key("events");
  json.BeginArray();
  for (const RunReportEvent& event : Events()) {
    json.BeginObject();
    json.Key("time_s");
    json.Double(event.time_s);
    json.Key("kind");
    json.String(event.kind);
    json.Key("vm");
    json.String(event.vm);
    json.Key("host");
    json.String(event.host);
    json.Key("market");
    json.String(event.market);
    json.Key("detail");
    json.String(event.detail);
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.str();
}

bool RunReport::WriteTo(const std::string& path) const {
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
    // A pre-existing directory is fine; only the fopen below decides failure.
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string text = ToJson();
  const bool write_ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool close_ok = std::fclose(f) == 0;
  return write_ok && close_ok;
}

}  // namespace spotcheck
