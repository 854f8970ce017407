#include "tsss/obs/trace.h"

#include <algorithm>

#include "tsss/obs/json.h"

namespace tsss::obs {

namespace {

thread_local QueryTrace* g_current_query_trace = nullptr;

/// Zero-initialized POD: constant-initialized, so reading it from a signal
/// handler never runs a TLS guard or allocates (local-exec/initial-exec TLS;
/// the library is linked statically into its binaries).
thread_local PhaseStack g_phase_stack;

}  // namespace

QueryTrace::QueryTrace() : start_(std::chrono::steady_clock::now()) {}

std::uint64_t QueryTrace::NowUs() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

std::size_t QueryTrace::OpenSpan(std::string name) {
  TraceEvent event;
  event.name = std::move(name);
  event.start_us = NowUs();
  event.parent = open_.empty() ? TraceEvent::kNoParent : open_.back();
  event.depth = static_cast<int>(open_.size());
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(event));
  open_.push_back(index);
  return index;
}

void QueryTrace::CloseSpan(std::size_t index) {
  if (index >= spans_.size() || spans_[index].closed) return;
  const std::uint64_t now = NowUs();
  // Unwind the open stack to (and including) `index`, closing any spans that
  // were left open inside it so the tree stays well-nested.
  while (!open_.empty()) {
    const std::size_t top = open_.back();
    open_.pop_back();
    TraceEvent& span = spans_[top];
    span.dur_us = now >= span.start_us ? now - span.start_us : 0;
    span.closed = true;
    if (top == index) return;
  }
}

void QueryTrace::AddArg(std::size_t index, const std::string& key,
                        std::uint64_t value) {
  if (index >= spans_.size()) return;
  spans_[index].args.emplace_back(key, value);
}

void QueryTrace::Annotate(const std::string& key, std::uint64_t value) {
  if (!open_.empty()) {
    AddArg(open_.back(), key, value);
  } else if (!spans_.empty()) {
    AddArg(0, key, value);
  }
}

std::string QueryTrace::ToChromeJson() const {
  const std::uint64_t now = NowUs();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& span : spans_) {
    if (!first) out += ",";
    first = false;
    const std::uint64_t dur =
        span.closed ? span.dur_us
                    : (now >= span.start_us ? now - span.start_us : 0);
    out += "{\"name\":\"" + JsonEscape(span.name) +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           std::to_string(span.start_us) + ",\"dur\":" + std::to_string(dur);
    if (!span.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : span.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"" + JsonEscape(key) + "\":" + std::to_string(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

QueryTrace* CurrentQueryTrace() { return g_current_query_trace; }

PhaseStack* CurrentPhaseStack() { return &g_phase_stack; }

const char* CurrentPhaseName() {
  PhaseStack& stack = g_phase_stack;
  // The fence below pairs with the release fence in the TraceSpan push.
  // relaxed-ok: same-thread signal ordering via the fences
  const int depth = stack.depth.load(std::memory_order_relaxed);
  if (depth <= 0) return nullptr;
  std::atomic_signal_fence(std::memory_order_acquire);
  const int top = depth <= PhaseStack::kMaxDepth ? depth - 1
                                                 : PhaseStack::kMaxDepth - 1;
  // relaxed-ok: same-thread read ordered by the signal fence above
  return stack.names[top].load(std::memory_order_relaxed);
}

ScopedQueryTrace::ScopedQueryTrace(QueryTrace* trace)
    : prev_(g_current_query_trace) {
  g_current_query_trace = trace;
}

ScopedQueryTrace::~ScopedQueryTrace() { g_current_query_trace = prev_; }

TraceSpan::TraceSpan(const char* name) : trace_(g_current_query_trace) {
  // Phase mirror push. A SIGPROF handler on this thread observes either the
  // pre-push or post-push state: the name store is ordered before the depth
  // store by the signal fence, so a depth it reads always covers valid names.
  PhaseStack& stack = g_phase_stack;
  // relaxed-ok: only this thread writes; handler reads are fence-ordered
  phase_depth_ = stack.depth.load(std::memory_order_relaxed);
  if (phase_depth_ < PhaseStack::kMaxDepth) {
    // relaxed-ok: ordered before the depth store by the signal fence
    stack.names[phase_depth_].store(name, std::memory_order_relaxed);
  }
  std::atomic_signal_fence(std::memory_order_release);
  // relaxed-ok: same-thread publish, fence supplies the handler ordering
  stack.depth.store(phase_depth_ + 1, std::memory_order_relaxed);

  if (trace_ != nullptr) index_ = trace_->OpenSpan(name);
}

TraceSpan::~TraceSpan() {
  PopPhase();
  if (trace_ != nullptr) trace_->CloseSpan(index_);
}

void TraceSpan::Annotate(const char* key, std::uint64_t value) {
  if (trace_ != nullptr) trace_->AddArg(index_, key, value);
}

void TraceSpan::Close() {
  PopPhase();
  if (trace_ != nullptr) trace_->CloseSpan(index_);
}

void TraceSpan::PopPhase() {
  if (phase_popped_) return;
  phase_popped_ = true;
  PhaseStack& stack = g_phase_stack;
  // Restore to this span's remembered depth; only ever shrink, so an
  // out-of-order Close() (inner span still open) self-heals instead of
  // exposing a stale deeper name.
  // A handler that still reads the old depth sees names the push made valid.
  // relaxed-ok: same-thread pop
  if (stack.depth.load(std::memory_order_relaxed) > phase_depth_) {
    stack.depth.store(phase_depth_, std::memory_order_relaxed);  // relaxed-ok: same
  }
}

}  // namespace tsss::obs
