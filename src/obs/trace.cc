#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <tuple>

namespace chimera::obs {

namespace {

constexpr std::size_t kMinRingCapacity = 16;
constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 18;

/// One thread's event ring. Owned by the global registry (events survive
/// thread exit); the recording thread holds a raw pointer in a thread_local.
/// The mutex serializes appends against collect()/reset() — two recording
/// threads never share a buffer, so the append path is uncontended.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;  ///< grow-only up to capacity, then wraps
  std::size_t count = 0;         ///< events ever appended since last reset
  std::uint64_t seq = 0;         ///< next per-thread sequence number
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: threads may outlive main
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_capacity{kDefaultRingCapacity};

/// Control-plane state (set while no traced region runs; the pool dispatch
/// barriers order these writes against the recording threads' reads).
std::function<double()>& custom_clock() {
  static std::function<double()> clock;
  return clock;
}
PlanTimes& plan_times() {
  static PlanTimes times;
  return times;
}
std::atomic<bool> g_plan_armed{false};

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local int tl_worker = -1;
thread_local int tl_lane = 0;

ThreadBuffer& buffer() {
  if (tl_buffer == nullptr) {
    auto buf = std::make_unique<ThreadBuffer>();
    tl_buffer = buf.get();
    std::lock_guard<std::mutex> lock(registry().mu);
    registry().buffers.push_back(std::move(buf));
  }
  return *tl_buffer;
}

void append(TraceEvent ev) {
  ThreadBuffer& buf = buffer();
  const std::size_t cap =
      std::max(kMinRingCapacity, g_capacity.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(buf.mu);
  ev.lane = tl_lane;
  ev.seq = buf.seq++;
  if (buf.ring.size() < cap && buf.count == buf.ring.size()) {
    buf.ring.push_back(ev);
  } else {
    // Wrapped (or the capacity shrank): overwrite the oldest slot.
    if (buf.ring.size() > cap) buf.ring.resize(cap);
    buf.ring[buf.count % buf.ring.size()] = ev;
  }
  ++buf.count;
}

}  // namespace

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kForward: return "forward";
    case EventKind::kBackward: return "backward";
    case EventKind::kAllReduceBegin: return "allreduce_begin";
    case EventKind::kAllReduceWait: return "allreduce_wait";
    case EventKind::kPrefillOp: return "prefill_op";
    case EventKind::kDecodeOp: return "decode_op";
    case EventKind::kSend: return "send";
    case EventKind::kRecv: return "recv";
    case EventKind::kGradSync: return "grad_sync";
    case EventKind::kOptimStep: return "optim_step";
    case EventKind::kHelperTask: return "helper_task";
    case EventKind::kServeRound: return "serve_round";
    case EventKind::kPrefillRound: return "prefill_round";
    case EventKind::kDecodeRound: return "decode_round";
    case EventKind::kStashAcquire: return "stash_acquire";
    case EventKind::kStashRelease: return "stash_release";
    case EventKind::kCacheAcquire: return "cache_acquire";
    case EventKind::kCacheRelease: return "cache_release";
    case EventKind::kAdmit: return "admit";
    case EventKind::kResume: return "resume";
    case EventKind::kPark: return "park";
    case EventKind::kPrefixHit: return "prefix_hit";
    case EventKind::kCowSplit: return "cow_split";
    case EventKind::kToken: return "token";
  }
  return "unknown";
}

EventKind op_event_kind(OpKind k) {
  switch (k) {
    case OpKind::kForward: return EventKind::kForward;
    case OpKind::kBackward: return EventKind::kBackward;
    case OpKind::kAllReduceBegin: return EventKind::kAllReduceBegin;
    case OpKind::kAllReduceWait: return EventKind::kAllReduceWait;
  }
  return EventKind::kForward;
}

bool event_kind_from_name(const std::string& name, EventKind* out) {
  for (int i = 0; i < kEventKindCount; ++i) {
    const EventKind k = static_cast<EventKind>(i);
    if (name == event_kind_name(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool trace_event_before(const TraceEvent& a, const TraceEvent& b) {
  return std::tie(a.worker, a.lane, a.seq, a.t0_us, a.t1_us, a.kind, a.micro,
                  a.stage, a.pipe, a.op_index, a.tag) <
         std::tie(b.worker, b.lane, b.seq, b.t0_us, b.t1_us, b.kind, b.micro,
                  b.stage, b.pipe, b.op_index, b.tag);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }

double now_us() {
  if (custom_clock()) return custom_clock()();
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void set_clock(std::function<double()> clock) {
  custom_clock() = std::move(clock);
}

void arm_plan_times(PlanTimes times) {
  plan_times() = std::move(times);
  g_plan_armed.store(true, std::memory_order_release);
}

void clear_plan_times() {
  g_plan_armed.store(false, std::memory_order_release);
  plan_times().clear();
}

void set_ring_capacity(std::size_t capacity) {
  g_capacity.store(std::max(kMinRingCapacity, capacity),
                   std::memory_order_relaxed);
}

void reset() {
  std::lock_guard<std::mutex> lock(registry().mu);
  for (auto& buf : registry().buffers) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->ring.clear();
    buf->count = 0;
    buf->seq = 0;
  }
}

std::vector<TraceEvent> collect() {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(registry().mu);
    for (auto& buf : registry().buffers) {
      std::lock_guard<std::mutex> bl(buf->mu);
      if (buf->count <= buf->ring.size()) {
        out.insert(out.end(), buf->ring.begin(),
                   buf->ring.begin() +
                       static_cast<std::ptrdiff_t>(buf->count));
      } else {
        // Wrapped ring: the oldest retained event sits at count % size.
        const std::size_t n = buf->ring.size();
        const std::size_t head = buf->count % n;
        out.insert(out.end(),
                   buf->ring.begin() + static_cast<std::ptrdiff_t>(head),
                   buf->ring.end());
        out.insert(out.end(), buf->ring.begin(),
                   buf->ring.begin() + static_cast<std::ptrdiff_t>(head));
      }
    }
  }
  std::sort(out.begin(), out.end(), trace_event_before);
  return out;
}

void set_thread_worker(int worker) { tl_worker = worker; }
void set_thread_lane(int lane) { tl_lane = lane; }
int thread_worker() { return tl_worker; }

void instant(EventKind kind, int worker, int micro, int stage, int pipe,
             long tag) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = kind;
  ev.worker = worker;
  ev.micro = micro;
  ev.stage = stage;
  ev.pipe = pipe;
  ev.tag = tag;
  ev.t0_us = ev.t1_us = now_us();
  append(ev);
}

void Span::open(EventKind kind, int worker, int micro, int stage, int pipe,
                long tag) {
  armed_ = true;
  ev_.kind = kind;
  ev_.worker = worker;
  ev_.micro = micro;
  ev_.stage = stage;
  ev_.pipe = pipe;
  ev_.tag = tag;
  ev_.t0_us = now_us();
}

void Span::close() {
  ev_.t1_us = now_us();
  append(ev_);
}

void OpSpan::open(EventKind kind, int rank, int plan_worker, int op_index,
                  int micro, int stage, int pipe) {
  armed_ = true;
  ev_.kind = kind;
  ev_.worker = rank;
  ev_.micro = micro;
  ev_.stage = stage;
  ev_.pipe = pipe;
  ev_.op_index = op_index;
  if (g_plan_armed.load(std::memory_order_acquire)) {
    const PlanTimes& times = plan_times();
    if (plan_worker >= 0 && plan_worker < static_cast<int>(times.size()) &&
        op_index >= 0 &&
        op_index < static_cast<int>(times[plan_worker].size())) {
      ev_.t0_us = times[plan_worker][op_index].first;
      ev_.t1_us = times[plan_worker][op_index].second;
      stamped_ = true;
      return;
    }
  }
  ev_.t0_us = now_us();
}

void OpSpan::close() {
  if (!stamped_) ev_.t1_us = now_us();
  append(ev_);
}

}  // namespace chimera::obs
