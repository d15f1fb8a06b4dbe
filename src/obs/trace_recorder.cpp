#include "obs/trace_recorder.hpp"

#include <cstdio>
#include <fstream>

#include "util/json.hpp"

namespace liquid::obs {
namespace {

/// Static per-type export metadata: display name, category, and the JSON
/// keys for a0..a2 (nullptr = the slot is unused by this type).
struct TypeInfo {
  const char* name;
  const char* cat;
  const char* k0;
  const char* k1;
  const char* k2;
  const char* ext_key;  ///< key for the variable-length tail, when present
};

const TypeInfo& InfoFor(TraceEventType type) {
  static const TypeInfo kInfo[] = {
      {"arrival", "router", "prompt_tokens", "max_new_tokens", "attempt",
       nullptr},
      {"route", "router", "replica", "predicted_ttft", "score", "terms"},
      {"reject", "router", "predicted_ttft", nullptr, nullptr, nullptr},
      {"no_replica", "router", nullptr, nullptr, nullptr, nullptr},
      {"retry_scheduled", "chaos", "attempt", "release_at", nullptr, nullptr},
      {"retries_exhausted", "chaos", "attempt", nullptr, nullptr, nullptr},
      {"kill", "chaos", "replica", "lost", nullptr, nullptr},
      {"degrade", "chaos", "replica", "slowdown", nullptr, nullptr},
      {"scale_up", "autoscale", "replica", "pool", "signal", nullptr},
      {"scale_down", "autoscale", "replica", "pool", "signal", nullptr},
      {"autoscale_tick", "autoscale", nullptr, nullptr, nullptr, nullptr},
      {"migration_begin", "disagg", "src", "dst", "bytes", nullptr},
      {"migration_land", "disagg", "src", "dst", "stall_seconds", nullptr},
      {"migration_reroute", "disagg", "src", "dst", nullptr, nullptr},
      {"target_death", "disagg", "dst", nullptr, nullptr, nullptr},
      {"local_fallback", "disagg", "src", nullptr, nullptr, nullptr},
      {"import_oom", "disagg", "dst", nullptr, nullptr, nullptr},
      {"admit", "lifecycle", "cached_tokens", nullptr, nullptr, nullptr},
      {"prefill", "engine", "prompt_tokens", "cached_tokens", nullptr,
       nullptr},
      {"prefill_chunk", "engine", "chunk_tokens", "prior_tokens", nullptr,
       nullptr},
      {"decode_step", "engine", "batch", "mean_len", nullptr, nullptr},
      {"prefix_hit", "lifecycle", "cached_tokens", nullptr, nullptr, nullptr},
      {"complete", "lifecycle", "generated", "ttft_seconds", nullptr,
       nullptr},
      {"handoff_export", "lifecycle", "kv_tokens", nullptr, nullptr, nullptr},
      {"preempt", "lifecycle", "generated", nullptr, nullptr, nullptr},
      {"pool_drop", "lifecycle", nullptr, nullptr, nullptr, nullptr},
      {"queued", "request", "replica", nullptr, nullptr, nullptr},
      {"run", "request", "replica", nullptr, nullptr, nullptr},
      {"migrate", "request", "src", "dst", nullptr, nullptr},
  };
  return kInfo[static_cast<std::size_t>(type)];
}

const char* PhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInstant: return "instant";
    case TracePhase::kSpan: return "span";
    case TracePhase::kAsyncBegin: return "begin";
    case TracePhase::kAsyncEnd: return "end";
    case TracePhase::kFlowStart: return "flow_start";
    case TracePhase::kFlowStep: return "flow_step";
    case TracePhase::kFlowEnd: return "flow_end";
  }
  return "?";
}

/// Async-stage display name with the replica baked in ("run@r3"), so the
/// per-request journey lane reads where each stage executed.
void AppendStageName(std::string& out, const TraceEvent& e) {
  char buf[48];
  switch (e.type) {
    case TraceEventType::kStageQueued:
      std::snprintf(buf, sizeof(buf), "queued@r%d", static_cast<int>(e.a0));
      break;
    case TraceEventType::kStageRun:
      std::snprintf(buf, sizeof(buf), "run@r%d", static_cast<int>(e.a0));
      break;
    case TraceEventType::kStageMigrate:
      std::snprintf(buf, sizeof(buf), "migrate r%d->r%d",
                    static_cast<int>(e.a0), static_cast<int>(e.a1));
      break;
    default:
      std::snprintf(buf, sizeof(buf), "%s", InfoFor(e.type).name);
      break;
  }
  out += buf;
}

void AppendMicros(std::string& out, double seconds) {
  AppendJsonNumber(out, seconds * 1e6);
}

}  // namespace

const char* ToString(TraceEventType type) { return InfoFor(type).name; }

void TraceRecorder::DeclareProcess(std::int32_t pid, std::string name,
                                   int sort_index) {
  decls_.push_back({pid, 0, false, sort_index, std::move(name)});
}

void TraceRecorder::DeclareThread(std::int32_t pid, std::int32_t tid,
                                  std::string name) {
  decls_.push_back({pid, tid, true, 0, std::move(name)});
}

void TraceRecorder::Instant(TraceEventType type, double t, std::int32_t pid,
                            std::int32_t tid, std::uint64_t id, double a0,
                            double a1, double a2) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kInstant;
  e.pid = pid;
  e.tid = tid;
  e.t = t;
  e.id = id;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  events_.push_back(e);
}

void TraceRecorder::InstantWithArgs(TraceEventType type, double t,
                                    std::int32_t pid, std::int32_t tid,
                                    std::uint64_t id, double a0, double a1,
                                    double a2, std::span<const TraceArg> ext) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kInstant;
  e.pid = pid;
  e.tid = tid;
  e.t = t;
  e.id = id;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  e.ext_off = static_cast<std::uint32_t>(ext_pool_.size());
  e.ext_len = static_cast<std::uint32_t>(ext.size());
  ext_pool_.insert(ext_pool_.end(), ext.begin(), ext.end());
  events_.push_back(e);
}

void TraceRecorder::Span(TraceEventType type, double start, double dur,
                         std::int32_t pid, std::int32_t tid, std::uint64_t id,
                         double a0, double a1, double a2) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kSpan;
  e.pid = pid;
  e.tid = tid;
  e.t = start;
  e.dur = dur;
  e.id = id;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  events_.push_back(e);
}

void TraceRecorder::AsyncBegin(TraceEventType type, double t, std::uint64_t id,
                               double a0, double a1, double a2) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kAsyncBegin;
  e.pid = kFleetPid;
  e.tid = 0;
  e.t = t;
  e.id = id;
  e.a0 = a0;
  e.a1 = a1;
  e.a2 = a2;
  events_.push_back(e);
}

void TraceRecorder::AsyncEnd(TraceEventType type, double t, std::uint64_t id) {
  TraceEvent e;
  e.type = type;
  e.phase = TracePhase::kAsyncEnd;
  e.pid = kFleetPid;
  e.tid = 0;
  e.t = t;
  e.id = id;
  events_.push_back(e);
}

void TraceRecorder::Flow(TracePhase phase, double t, std::int32_t pid,
                         std::int32_t tid, std::uint64_t id) {
  TraceEvent e;
  e.type = TraceEventType::kStageMigrate;
  e.phase = phase;
  e.pid = pid;
  e.tid = tid;
  e.t = t;
  e.id = id;
  events_.push_back(e);
}

void TraceRecorder::Clear() {
  events_.clear();
  ext_pool_.clear();
  decls_.clear();
}

std::string TraceRecorder::ToChromeTraceJson() const {
  std::string out;
  out.reserve(events_.size() * 120 + decls_.size() * 80 + 64);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  for (const NameDecl& d : decls_) {
    if (d.is_thread) {
      sep();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(d.pid);
      out += ",\"tid\":";
      out += std::to_string(d.tid);
      out += ",\"args\":{\"name\":";
      AppendJsonString(out, d.name);
      out += "}}";
    } else {
      sep();
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(d.pid);
      out += ",\"args\":{\"name\":";
      AppendJsonString(out, d.name);
      out += "}}";
      sep();
      out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(d.pid);
      out += ",\"args\":{\"sort_index\":";
      out += std::to_string(d.sort_index);
      out += "}}";
    }
  }

  const auto args = [&](const TraceEvent& e) {
    const TypeInfo& info = InfoFor(e.type);
    bool any = false;
    const auto one = [&](const char* key, double value) {
      if (key == nullptr) return;
      out += any ? "," : ",\"args\":{";
      any = true;
      AppendJsonString(out, key);
      out += ':';
      AppendJsonNumber(out, value);
    };
    one(info.k0, e.a0);
    one(info.k1, e.a1);
    one(info.k2, e.a2);
    for (std::uint32_t i = 0; i < e.ext_len; ++i) {
      const TraceArg& a = ext_pool_[e.ext_off + i];
      one(a.key, a.value);
    }
    if (any) out += '}';
  };

  for (const TraceEvent& e : events_) {
    const TypeInfo& info = InfoFor(e.type);
    sep();
    switch (e.phase) {
      case TracePhase::kInstant:
        out += "{\"name\":\"";
        out += info.name;
        out += "\",\"cat\":\"";
        out += info.cat;
        out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
        AppendMicros(out, e.t);
        out += ",\"pid\":";
        out += std::to_string(e.pid);
        out += ",\"tid\":";
        out += std::to_string(e.tid);
        if (e.id != 0 || e.type == TraceEventType::kArrival) {
          out += ",\"id\":";
          out += std::to_string(e.id);
        }
        args(e);
        out += '}';
        break;
      case TracePhase::kSpan:
        out += "{\"name\":\"";
        out += info.name;
        out += "\",\"cat\":\"";
        out += info.cat;
        out += "\",\"ph\":\"X\",\"ts\":";
        AppendMicros(out, e.t);
        out += ",\"dur\":";
        AppendMicros(out, e.dur);
        out += ",\"pid\":";
        out += std::to_string(e.pid);
        out += ",\"tid\":";
        out += std::to_string(e.tid);
        args(e);
        out += '}';
        break;
      case TracePhase::kAsyncBegin:
        out += "{\"name\":\"";
        AppendStageName(out, e);
        out += "\",\"cat\":\"request\",\"ph\":\"b\",\"ts\":";
        AppendMicros(out, e.t);
        out += ",\"pid\":0,\"tid\":0,\"id\":";
        out += std::to_string(e.id);
        args(e);
        out += '}';
        break;
      case TracePhase::kAsyncEnd:
        out += "{\"name\":\"";
        out += info.name;
        out += "\",\"cat\":\"request\",\"ph\":\"e\",\"ts\":";
        AppendMicros(out, e.t);
        out += ",\"pid\":0,\"tid\":0,\"id\":";
        out += std::to_string(e.id);
        out += '}';
        break;
      case TracePhase::kFlowStart:
      case TracePhase::kFlowStep:
      case TracePhase::kFlowEnd: {
        const char* ph = e.phase == TracePhase::kFlowStart ? "s"
                         : e.phase == TracePhase::kFlowStep ? "t"
                                                            : "f";
        out += "{\"name\":\"kv\",\"cat\":\"kvflow\",\"ph\":\"";
        out += ph;
        out += "\",\"ts\":";
        AppendMicros(out, e.t);
        out += ",\"pid\":";
        out += std::to_string(e.pid);
        out += ",\"tid\":";
        out += std::to_string(e.tid);
        out += ",\"id\":";
        out += std::to_string(e.id);
        if (e.phase == TracePhase::kFlowEnd) out += ",\"bp\":\"e\"";
        out += '}';
        break;
      }
    }
  }
  out += "\n],\n\"displayTimeUnit\":\"ms\"\n}\n";
  return out;
}

std::string TraceRecorder::ToJsonl() const {
  std::string out;
  out.reserve(events_.size() * 110);
  for (const TraceEvent& e : events_) {
    const TypeInfo& info = InfoFor(e.type);
    out += "{\"type\":\"";
    out += info.name;
    out += "\",\"phase\":\"";
    out += PhaseName(e.phase);
    out += "\",\"t\":";
    AppendJsonNumber(out, e.t);
    if (e.phase == TracePhase::kSpan) {
      out += ",\"dur\":";
      AppendJsonNumber(out, e.dur);
    }
    out += ",\"pid\":";
    out += std::to_string(e.pid);
    out += ",\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"id\":";
    out += std::to_string(e.id);
    const auto one = [&](const char* key, double value) {
      if (key == nullptr) return;
      out += ',';
      AppendJsonString(out, key);
      out += ':';
      AppendJsonNumber(out, value);
    };
    if (e.phase != TracePhase::kAsyncEnd && e.phase != TracePhase::kFlowStart &&
        e.phase != TracePhase::kFlowStep && e.phase != TracePhase::kFlowEnd) {
      one(info.k0, e.a0);
      one(info.k1, e.a1);
      one(info.k2, e.a2);
      if (e.ext_len > 0 && info.ext_key != nullptr) {
        out += ',';
        AppendJsonString(out, info.ext_key);
        out += ":{";
        for (std::uint32_t i = 0; i < e.ext_len; ++i) {
          const TraceArg& a = ext_pool_[e.ext_off + i];
          if (i > 0) out += ',';
          AppendJsonString(out, a.key);
          out += ':';
          AppendJsonNumber(out, a.value);
        }
        out += '}';
      }
    }
    out += "}\n";
  }
  return out;
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  const std::string body = ToChromeTraceJson();
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(file);
}

bool TraceRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  const std::string body = ToJsonl();
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  return static_cast<bool>(file);
}

}  // namespace liquid::obs
