// In-memory span log for the traced run: the benchmark records one span
// around each of its own calls into a layer's public function (name, start,
// end, parent span, op id) and writes them all once, at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fleetbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span, -1 at top level
    int op = -1;      // engine op the span belongs to, -1 for none
  };

  /// Opens a span under the innermost open one; returns its id.
  int open(std::string name, int op = -1) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t close() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }

  /// Adds an already-measured span (e.g. a round bounded by callbacks).
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, int op) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, op});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array; times are ns since the first span.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"op\": %d}%s\n",
                   i, s.name.c_str(),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent, s.op,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace fleetbench
