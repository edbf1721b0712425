// Per-op span analysis for the traced phase. The tracer holds one op's
// spans at a time: the benchmark's `bench.op` window, its `bench.<call>`
// timers around each call into a layer, and every span the program emitted
// during the op.
#include <algorithm>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {
namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

// Total length (µs) of the union of `iv`, each clipped to [lo, hi].
std::int64_t union_us(std::vector<Interval> iv, std::int64_t lo,
                      std::int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

double ms(std::int64_t us) { return static_cast<double>(us) / 1000.0; }
std::int64_t dur(const obs::SpanRecord& s) { return s.end_us - s.start_us; }
bool is_bench(const obs::SpanRecord& s) { return s.name.starts_with("bench."); }
bool contains(const obs::SpanRecord& outer, const obs::SpanRecord& inner) {
  return outer.start_us <= inner.start_us && inner.end_us <= outer.end_us;
}

// The program root span a bench timer wraps, if any: builds open a `build`
// span, launches a `cluster.launch` span. Push has no span of its own.
const char* root_for(const std::string& bench_name) {
  if (bench_name.find(".build") != std::string::npos) return "build";
  if (bench_name == "bench.cluster.launch") return "cluster.launch";
  return nullptr;
}

const char* const kSummed[] = {"syscall-batch", "cache.lookup", "cache.store",
                               "snapshot",      "snapshot.sync", "chunk.put"};

}  // namespace

void SpanTotals::add_op(const std::vector<obs::SpanRecord>& all) {
  std::vector<const obs::SpanRecord*> spans;
  for (const auto& s : all) {
    if (s.end_us >= s.start_us) spans.push_back(&s);  // skip open spans
  }
  std::unordered_map<obs::SpanId, std::vector<Interval>> children;
  for (const auto* s : spans) {
    if (s->parent != obs::kNoSpan) {
      children[s->parent].push_back({s->start_us, s->end_us});
    }
  }
  const obs::SpanRecord* op = nullptr;
  std::vector<const obs::SpanRecord*> timers;
  std::vector<const obs::SpanRecord*> roots;
  std::vector<Interval> leaves;
  for (const auto* s : spans) {
    if (is_bench(*s)) {
      if (s->name == "bench.op") {
        op = s;
      } else {
        calls_ms[s->name.substr(6)].push_back(ms(dur(*s)));
        if (root_for(s->name) != nullptr) timers.push_back(s);
      }
      continue;
    }
    for (const char* name : kSummed) {
      if (s->name == name) by_name_ms[name] += ms(dur(*s));
    }
    const auto kids = children.find(s->id);
    if (s->name == "build" || s->name == "stage") {
      const std::int64_t covered =
          kids == children.end()
              ? 0
              : union_us(kids->second, s->start_us, s->end_us);
      unattributed_ms += ms(dur(*s) - covered);
    }
    if (s->parent == obs::kNoSpan &&
        (s->name == "build" || s->name == "cluster.launch")) {
      roots.push_back(s);
    } else if (kids == children.end()) {
      leaves.push_back({s->start_us, s->end_us});
    }
  }
  if (op == nullptr) return;
  ++ops;
  covered_ms += ms(union_us(leaves, op->start_us, op->end_us));
  op_window_ms += ms(dur(*op));

  for (const auto* t : timers) {
    const obs::SpanRecord* match = nullptr;
    int n = 0;
    for (const auto* r : roots) {
      if (r->name == root_for(t->name) && contains(*t, *r)) {
        match = r;
        ++n;
      }
    }
    if (n == 1) {
      ++matched_calls;
      matched_bench_ms += ms(dur(*t));
      matched_span_ms += ms(dur(*match));
      span_over_timer.push_back(dur(*t) > 0 ? static_cast<double>(dur(*match)) /
                                                  static_cast<double>(dur(*t))
                                            : 1);
    } else {
      ++unmatched_calls;
    }
  }
  for (const auto* r : roots) {
    const bool inside = std::any_of(
        timers.begin(), timers.end(),
        [&](const obs::SpanRecord* t) { return contains(*t, *r); });
    if (!inside) ++escaped_spans;
  }

  // Swarm phases per launch: first span start to last span end.
  for (const auto* launch : roots) {
    if (launch->name != "cluster.launch") continue;
    auto phase = [&](const char* name, std::vector<double>& out) {
      std::int64_t first = launch->end_us;
      std::int64_t last = -1;
      for (const auto* s : spans) {
        if (s->name == name && contains(*launch, *s)) {
          first = std::min(first, s->start_us);
          last = std::max(last, s->end_us);
        }
      }
      if (last >= first) out.push_back(ms(last - first));
      return last;
    };
    phase("swarm.plan", plan_ms);
    phase("swarm.seed", seed_ms);
    const std::int64_t exchange_end = phase("swarm.exchange", exchange_ms);
    if (exchange_end >= 0) {
      materialize_ms.push_back(ms(launch->end_us - exchange_end));
    }
  }
}

}  // namespace perfbench
