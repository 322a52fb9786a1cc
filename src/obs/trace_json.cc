#include "obs/trace_json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "support/json.h"

namespace chimera::obs {

namespace {

// ---- writer --------------------------------------------------------------

/// Chrome "cat" grouping per kind — display-only; the parser re-derives and
/// cross-checks it.
const char* event_category(EventKind k) {
  if (is_instant_kind(k)) return "mark";
  if (is_plan_op(k)) return "op";
  switch (k) {
    case EventKind::kSend:
    case EventKind::kRecv: return "comm";
    case EventKind::kGradSync:
    case EventKind::kOptimStep: return "sync";
    case EventKind::kHelperTask: return "pool";
    default: return "round";
  }
}

/// 64-bit so that no parsed worker id can overflow the display mapping.
std::int64_t worker_pid(int worker) { return std::int64_t{worker} + 1; }

void write_args(std::ostringstream& os, const TraceEvent& e) {
  os << "{\"worker\":" << e.worker << ",\"lane\":" << e.lane
     << ",\"seq\":" << e.seq << ",\"micro\":" << e.micro
     << ",\"stage\":" << e.stage << ",\"pipe\":" << e.pipe
     << ",\"op_index\":" << e.op_index << ",\"tag\":" << e.tag << '}';
}

void write_event(std::ostringstream& os, const TraceEvent& e) {
  os << "{\"name\":\"" << event_kind_name(e.kind) << "\",\"cat\":\""
     << event_category(e.kind) << "\",\"ph\":\""
     << (is_instant_kind(e.kind) ? "i" : "X")
     << "\",\"pid\":" << worker_pid(e.worker) << ",\"tid\":" << e.lane
     << ",\"ts\":" << json::num17(e.t0_us);
  if (is_instant_kind(e.kind))
    os << ",\"s\":\"t\"";
  else
    os << ",\"dur\":" << json::num17(e.t1_us - e.t0_us);
  os << ",\"args\":";
  write_args(os, e);
  os << '}';
}

// ---- strict extraction (support/json.h) --------------------------------

using T = json::Value::Type;

TraceEvent read_event(json::ObjectReader& r, const std::string& ph) {
  const std::string& name = r.get("name", T::kString).string;
  TraceEvent e;
  CHIMERA_CHECK_MSG(event_kind_from_name(name, &e.kind),
                    "unknown event name \"" << name << '"');
  const bool inst = is_instant_kind(e.kind);
  CHIMERA_CHECK_MSG(ph == (inst ? "i" : "X"),
                    "event \"" << name << "\" has ph \"" << ph << '"');
  CHIMERA_CHECK_MSG(r.get("cat", T::kString).string == event_category(e.kind),
                    "event \"" << name << "\" has a mismatched category");
  if (inst)
    CHIMERA_CHECK_MSG(r.get("s", T::kString).string == "t",
                      "instant scope must be \"t\"");

  json::ObjectReader args(r.get("args", T::kObject), "event.args");
  e.worker = args.get_int<int>("worker");
  e.lane = args.get_int<int>("lane");
  e.seq = args.get_int<std::uint64_t>("seq");
  e.micro = args.get_int<int>("micro");
  e.stage = args.get_int<int>("stage");
  e.pipe = args.get_int<int>("pipe");
  e.op_index = args.get_int<int>("op_index");
  e.tag = args.get_int<long>("tag");
  args.finish();

  e.t0_us = r.get("ts", T::kNumber).number;
  e.t1_us = inst ? e.t0_us : e.t0_us + r.get("dur", T::kNumber).number;
  CHIMERA_CHECK_MSG(std::isfinite(e.t1_us), "event end time overflows");
  // pid/tid are derived display fields: cross-check, never trust.
  CHIMERA_CHECK_MSG(r.get_int<std::int64_t>("pid") == worker_pid(e.worker),
                    "event pid disagrees with args.worker");
  CHIMERA_CHECK_MSG(r.get_int<std::int64_t>("tid") == e.lane,
                    "event tid disagrees with args.lane");
  r.finish();
  return e;
}

}  // namespace

std::string trace_doc_to_json(const TraceDoc& doc) {
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  // Metadata first: name pid 0 and every worker pid present, plus helper
  // lanes — derived deterministically from the events, so they need not
  // (and do not) round-trip through TraceDoc.
  std::set<int> workers;
  std::set<int> helper_lanes;
  for (const TraceEvent& e : doc.events) {
    if (e.worker >= 0) workers.insert(e.worker);
    if (e.lane > 0) helper_lanes.insert(e.lane);
  }
  os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
        "{\"name\":\"engine\"}}";
  for (int w : workers)
    os << ",\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
       << worker_pid(w) << ",\"args\":{\"name\":\"worker " << w << "\"}}";
  for (int l : helper_lanes)
    os << ",\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << l
       << ",\"args\":{\"name\":\"helper " << l - 1 << "\"}}";
  for (const TraceEvent& e : doc.events) {
    os << ",\n  ";
    write_event(os, e);
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {";
  const TraceMeta& m = doc.meta;
  os << "\"format\":\"" << json::escape(doc.format) << "\",\"workload\":\""
     << json::escape(m.workload) << "\",\"scheme\":\"" << json::escape(m.scheme)
     << "\",\"depth\":" << m.depth << ",\"num_micro\":" << m.num_micro
     << ",\"pipes_f\":" << m.pipes_f << ",\"scale\":\"" << json::escape(m.scale)
     << "\",\"sync\":\"" << json::escape(m.sync)
     << "\",\"recompute\":" << (m.recompute ? "true" : "false")
     << ",\"data_parallel\":" << m.data_parallel
     << ",\"micro_batch\":" << m.micro_batch << ",\"partition\":\""
     << json::escape(m.partition) << "\",\"hidden\":" << m.hidden
     << ",\"heads\":" << m.heads << ",\"layers\":" << m.layers
     << ",\"seq\":" << m.seq << ",\"vocab\":" << m.vocab
     << ",\"causal\":" << (m.causal ? "true" : "false") << "}}\n";
  return os.str();
}

TraceDoc trace_from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  json::ObjectReader r(root, "trace");
  CHIMERA_CHECK_MSG(r.get("displayTimeUnit", T::kString).string == "ms",
                    "displayTimeUnit must be \"ms\"");

  TraceDoc doc;
  json::ObjectReader other(r.get("otherData", T::kObject), "otherData");
  doc.format = other.get("format", T::kString).string;
  CHIMERA_CHECK_MSG(doc.format == "chimera-trace-v1",
                    "unsupported trace format \"" << doc.format << '"');
  TraceMeta& m = doc.meta;
  m.workload = other.get("workload", T::kString).string;
  m.scheme = other.get("scheme", T::kString).string;
  m.depth = other.get_int<int>("depth");
  m.num_micro = other.get_int<int>("num_micro");
  m.pipes_f = other.get_int<int>("pipes_f");
  m.scale = other.get("scale", T::kString).string;
  m.sync = other.get("sync", T::kString).string;
  m.recompute = other.get("recompute", T::kBool).boolean;
  m.data_parallel = other.get_int<int>("data_parallel");
  m.micro_batch = other.get_int<int>("micro_batch");
  m.partition = other.get("partition", T::kString).string;
  m.hidden = other.get_int<int>("hidden");
  m.heads = other.get_int<int>("heads");
  m.layers = other.get_int<int>("layers");
  m.seq = other.get_int<int>("seq");
  m.vocab = other.get_int<int>("vocab");
  m.causal = other.get("causal", T::kBool).boolean;
  other.finish();

  for (const json::Value& ev : r.get("traceEvents", T::kArray).array) {
    json::ObjectReader er(ev, "event");
    const std::string& ph = er.get("ph", T::kString).string;
    if (ph == "M") continue;  // display metadata, regenerated on export
    doc.events.push_back(read_event(er, ph));
  }
  r.finish();
  return doc;
}

bool write_trace(const std::string& path, const TraceDoc& doc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return false;
  }
  out << trace_doc_to_json(doc);
  return static_cast<bool>(out);
}

}  // namespace chimera::obs
