#include "obs/prof/wall_profiler.hpp"

#include <cstdio>
#include <cstring>
#include <map>

#include "util/json.hpp"

namespace liquid::obs {

bool WallProfiler::enabled_ = false;

WallProfiler& WallProfiler::Instance() {
  static WallProfiler instance;
  return instance;
}

void WallProfiler::Reset() {
  root_.children.clear();
  cursor_ = &root_;
}

void WallProfiler::Enter(const char* name) {
  ProfNode* child = nullptr;
  for (const auto& c : cursor_->children) {
    // Same string literal first (the common case: one macro site), spelled
    // twice (e.g. two TUs) second.
    if (c->name == name || std::strcmp(c->name, name) == 0) {
      child = c.get();
      break;
    }
  }
  if (child == nullptr) {
    auto owned = std::make_unique<ProfNode>();
    owned->name = name;
    owned->parent = cursor_;
    child = owned.get();
    cursor_->children.push_back(std::move(owned));
  }
  ++child->count;
  cursor_ = child;
}

void WallProfiler::Leave(std::uint64_t elapsed_ns) {
  if (cursor_->parent == nullptr) return;
  cursor_->total_ns += elapsed_ns;
  cursor_ = cursor_->parent;
}

// --- export: fold the tree into strcmp order ---------------------------------

struct WallProfiler::Merged {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, Merged> children;  // std::map == byte-wise order

  [[nodiscard]] std::uint64_t SelfNs() const {
    std::uint64_t child_ns = 0;
    for (const auto& [_, c] : children) child_ns += c.total_ns;
    // Children can sum past the parent by the timers' own overhead; clamp so
    // self time never goes negative.
    return total_ns > child_ns ? total_ns - child_ns : 0;
  }
};

namespace {

void FoldInto(const ProfNode& src, WallProfiler::Merged& dst) {
  dst.count += src.count;
  dst.total_ns += src.total_ns;
  for (const auto& c : src.children) FoldInto(*c, dst.children[c->name]);
}

}  // namespace

WallProfiler::Merged WallProfiler::Fold() const {
  Merged root;
  for (const auto& c : root_.children) FoldInto(*c, root.children[c->name]);
  for (const auto& [_, c] : root.children) root.total_ns += c.total_ns;
  return root;
}

namespace {

void AppendMs(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  out += buf;
}

void TextNode(const WallProfiler::Merged& node, const std::string& name,
              int depth, bool include_times, std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += name;
  out += "  count=";
  out += std::to_string(node.count);
  if (include_times) {
    out += " total_ms=";
    AppendMs(out, node.total_ns);
    out += " self_ms=";
    AppendMs(out, node.SelfNs());
  }
  out += '\n';
  for (const auto& [child_name, child] : node.children) {
    TextNode(child, child_name, depth + 1, include_times, out);
  }
}

void CsvNode(const WallProfiler::Merged& node, const std::string& path,
             bool include_times, std::string& out) {
  out += path;
  out += ',';
  out += std::to_string(node.count);
  if (include_times) {
    out += ',';
    out += std::to_string(node.total_ns);
    out += ',';
    out += std::to_string(node.SelfNs());
  }
  out += '\n';
  for (const auto& [name, child] : node.children) {
    CsvNode(child, path + "/" + name, include_times, out);
  }
}

void FoldedNode(const WallProfiler::Merged& node, const std::string& stack,
                std::string& out) {
  out += stack;
  out += ' ';
  out += std::to_string(node.SelfNs());
  out += '\n';
  for (const auto& [name, child] : node.children) {
    FoldedNode(child, stack + ";" + name, out);
  }
}

struct SpeedscopeState {
  std::vector<std::string> frames;
  std::map<std::string, std::size_t> frame_index;
  std::vector<std::vector<std::size_t>> samples;
  std::vector<std::uint64_t> weights;

  std::size_t FrameIdx(const std::string& name) {
    auto it = frame_index.find(name);
    if (it != frame_index.end()) return it->second;
    const std::size_t idx = frames.size();
    frames.push_back(name);
    frame_index.emplace(name, idx);
    return idx;
  }

  void Walk(const WallProfiler::Merged& node, const std::string& name,
            std::vector<std::size_t>& stack) {
    stack.push_back(FrameIdx(name));
    samples.push_back(stack);
    weights.push_back(node.SelfNs());
    for (const auto& [child_name, child] : node.children) {
      Walk(child, child_name, stack);
    }
    stack.pop_back();
  }
};

}  // namespace

std::string WallProfiler::TextSummary(bool include_times) const {
  const Merged root = Fold();
  std::string out = "wall-profile";
  if (include_times) {
    out += " total_ms=";
    AppendMs(out, root.total_ns);
  }
  out += '\n';
  for (const auto& [name, child] : root.children) {
    TextNode(child, name, 1, include_times, out);
  }
  return out;
}

std::string WallProfiler::Csv(bool include_times) const {
  const Merged root = Fold();
  std::string out =
      include_times ? "path,count,total_ns,self_ns\n" : "path,count\n";
  for (const auto& [name, child] : root.children) {
    CsvNode(child, name, include_times, out);
  }
  return out;
}

std::string WallProfiler::CollapsedStacks() const {
  const Merged root = Fold();
  std::string out;
  for (const auto& [name, child] : root.children) {
    FoldedNode(child, name, out);
  }
  return out;
}

std::string WallProfiler::SpeedscopeJson() const {
  const Merged root = Fold();
  SpeedscopeState state;
  std::vector<std::size_t> stack;
  for (const auto& [name, child] : root.children) {
    state.Walk(child, name, stack);
  }
  std::uint64_t end_value = 0;
  for (const std::uint64_t w : state.weights) end_value += w;

  JsonWriter w;
  w.BeginObject()
      .Key("$schema")
      .String("https://www.speedscope.app/file-format-schema.json")
      .Key("shared")
      .BeginObject()
      .Key("frames")
      .BeginArray();
  for (const auto& frame : state.frames) {
    w.BeginObject().Key("name").String(frame).EndObject();
  }
  w.EndArray().EndObject();
  w.Key("profiles").BeginArray().BeginObject();
  w.Key("type").String("sampled");
  w.Key("name").String("liquid wall profile");
  w.Key("unit").String("nanoseconds");
  w.Key("startValue").Number(std::uint64_t{0});
  w.Key("endValue").Number(end_value);
  w.Key("samples").BeginArray();
  for (const auto& sample : state.samples) {
    w.BeginArray();
    for (const std::size_t frame : sample) {
      w.Number(static_cast<std::uint64_t>(frame));
    }
    w.EndArray();
  }
  w.EndArray();
  w.Key("weights").BeginArray();
  for (const std::uint64_t weight : state.weights) w.Number(weight);
  w.EndArray();
  w.EndObject().EndArray();
  w.Key("exporter").String("liquid-wall-profiler");
  w.EndObject();
  return w.TakeString();
}

}  // namespace liquid::obs
