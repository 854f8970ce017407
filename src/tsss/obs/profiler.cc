#include "tsss/obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <string.h>
#include <ucontext.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <unordered_map>

#include "tsss/obs/json.h"
#include "tsss/obs/trace.h"

namespace tsss::obs {

namespace {

/// The instance whose handler is installed; ITIMER_PROF is process-wide so
/// at most one profiler runs at a time. acquire/release pair the handler's
/// read with Start()'s publication of a fully initialized ring.
std::atomic<SamplingProfiler*> g_active{nullptr};

constexpr const char* kUntaggedPhase = "(untagged)";

/// Walks the frame-pointer chain starting from the interrupted context.
/// Async-signal-safe: no calls, only validated loads. Every dereference is
/// gated: the first frame pointer must lie within a bounded region above
/// `stack_hint` (a handler local on the same stack — the interrupted frames
/// are at higher addresses), and each step must ascend by a sane amount, so
/// a garbage rbp from foreign frame-pointer-less code breaks the walk
/// instead of faulting. The build compiles with -fno-omit-frame-pointer
/// precisely so in-repo frames always chain (see root CMakeLists).
int WalkFrames(void* pc, void** fp, const void* stack_hint, void** frames,
               int max_frames) {
  int n = 0;
  if (pc != nullptr) frames[n++] = pc;
  const std::uintptr_t hint = reinterpret_cast<std::uintptr_t>(stack_hint);
  // The first frame must be near the handler's own stack; later frames near
  // their predecessor. 1 MB / 256 KB bounds keep every dereference inside
  // the mapped stack region while admitting large on-stack buffers.
  std::uintptr_t low = hint;
  std::uintptr_t span = std::uintptr_t{1} << 20;
  while (fp != nullptr && n < max_frames) {
    const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(fp);
    if (addr % alignof(void*) != 0) break;
    if (addr <= low || addr - low > span) break;
    void* const ret = fp[1];
    if (ret == nullptr) break;
    frames[n++] = ret;
    low = addr;
    span = std::uintptr_t{1} << 18;
    fp = reinterpret_cast<void**>(fp[0]);
  }
  return n;
}

/// Best-effort name for one return address: demangled symbol via dladdr
/// (exported thanks to -rdynamic), else the containing module's basename,
/// else the raw address. Runs only at aggregation time, never in a handler.
std::string SymbolName(void* addr) {
  Dl_info info;
  if (::dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string name(demangled);
      std::free(demangled);
      return name;
    }
    if (demangled != nullptr) std::free(demangled);
    return info.dli_sname;
  }
  if (::dladdr(addr, &info) != 0 && info.dli_fname != nullptr) {
    const char* base = ::strrchr(info.dli_fname, '/');
    return std::string("[") + (base != nullptr ? base + 1 : info.dli_fname) +
           "]";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%zx", reinterpret_cast<std::size_t>(addr));
  return buf;
}

}  // namespace

// --- Profile rendering ------------------------------------------------------

std::string Profile::ToFolded() const {
  std::string out;
  for (const ProfileStack& entry : folded) {
    out += entry.stack;
    out += ' ';
    out += std::to_string(entry.samples);
    out += '\n';
  }
  return out;
}

std::string Profile::ToJson() const {
  std::string out = "{\"schema_version\":1,\"report\":\"profile\",";
  out += "\"hz\":" + std::to_string(hz) + ",";
  out += "\"seconds\":" + std::to_string(seconds) + ",";
  out += "\"samples\":" + std::to_string(samples) + ",";
  out += "\"dropped\":" + std::to_string(dropped) + ",";
  out += "\"phases\":[";
  bool first = true;
  for (const ProfilePhase& phase : phases) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(phase.name) +
           "\",\"samples\":" + std::to_string(phase.samples) + "}";
  }
  out += "],\"folded\":[";
  first = true;
  for (const ProfileStack& entry : folded) {
    if (!first) out += ",";
    first = false;
    out += "{\"stack\":\"" + JsonEscape(entry.stack) +
           "\",\"samples\":" + std::to_string(entry.samples) + "}";
  }
  out += "]}\n";
  return out;
}

// --- SamplingProfiler -------------------------------------------------------

SamplingProfiler::SamplingProfiler() : SamplingProfiler(Options()) {}

SamplingProfiler::SamplingProfiler(Options options) : options_([&options] {
      options.hz = std::clamp(options.hz, 1, 1000);
      if (options.ring_slots == 0) options.ring_slots = 1;
      return options;
    }()) {
  ring_ = std::make_unique<Sample[]>(options_.ring_slots);
}

SamplingProfiler::~SamplingProfiler() { Stop(); }

void SamplingProfiler::SignalHandler(int /*signo*/, siginfo_t* /*info*/,
                                     void* ucontext) {
  SamplingProfiler* profiler = g_active.load(std::memory_order_acquire);
  if (profiler != nullptr) profiler->OnSignal(ucontext);
}

void SamplingProfiler::OnSignal(void* ucontext) {
  // Claim a slot. Past the ring's end the claim just advances the head —
  // the overshoot IS the drop counter, so saturation costs one fetch_add.
  // relaxed-ok: slot claim; the committed release below publishes contents
  const std::uint64_t slot = head_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= options_.ring_slots) return;
  Sample& sample = ring_[slot];
  sample.phase = CurrentPhaseName();

  void* pc = nullptr;
  void** fp = nullptr;
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  pc = reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = reinterpret_cast<void**>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
  pc = reinterpret_cast<void*>(uc->uc_mcontext.pc);
  fp = reinterpret_cast<void**>(uc->uc_mcontext.regs[29]);
#else
  (void)ucontext;
#endif
  int n = WalkFrames(pc, fp, &pc, sample.frames, kMaxFrames);
  if (n < 3) {
    // Chain too short: the interrupt likely landed in foreign code without
    // frame pointers. backtrace() unwinds through the signal frame via CFI;
    // Start() warmed it up so no lazy initialization runs here. Its first
    // three frames are this function, SignalHandler and the trampoline.
    void* raw[kMaxFrames + 3];
    const int total = ::backtrace(raw, kMaxFrames + 3);
    constexpr int kSkip = 3;
    if (total > kSkip) {
      n = total - kSkip;
      ::memcpy(sample.frames, raw + kSkip,
               static_cast<std::size_t>(n) * sizeof(void*));
    }
  }
  sample.num_frames = n < 0 ? 0u : static_cast<std::uint32_t>(n);
  // Publish: Aggregate()'s acquire load of committed sees a complete sample.
  sample.committed.store(1, std::memory_order_release);
}

Status SamplingProfiler::Start() {
  if (running_) return Status::OK();
  SamplingProfiler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    return Status::FailedPrecondition(
        "another sampling profiler is already active in this process");
  }
  // Reset the ring before the first signal can fire. g_active is already
  // set, but no handler is installed yet, so these plain resets race with
  // nothing.
  head_.store(0, std::memory_order_relaxed);  // relaxed-ok: pre-handler reset
  for (std::size_t i = 0; i < options_.ring_slots; ++i) {
    // relaxed-ok: pre-handler reset, published by the sigaction below
    ring_[i].committed.store(0, std::memory_order_relaxed);
  }

  // Warm up backtrace(): its first call lazily loads libgcc's unwinder,
  // which allocates — fatal inside a signal handler, harmless here.
  void* warm[4];
  ::backtrace(warm, 4);

  struct sigaction action {};
  action.sa_sigaction = &SamplingProfiler::SignalHandler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (::sigaction(SIGPROF, &action, &prev_action_) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    return Status::IoError("sigaction(SIGPROF) failed");
  }

  itimerval timer{};
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = 1'000'000 / options_.hz;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, &prev_timer_) != 0) {
    ::sigaction(SIGPROF, &prev_action_, nullptr);
    g_active.store(nullptr, std::memory_order_release);
    return Status::IoError("setitimer(ITIMER_PROF) failed");
  }

  started_at_ = std::chrono::steady_clock::now();
  running_ = true;
  return Status::OK();
}

Profile SamplingProfiler::Stop() {
  if (!running_) return last_;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - started_at_)
          .count();

  // Disarm in dependency order: timer off (no new signals), handler
  // restored, then the active pointer cleared.
  itimerval off{};
  ::setitimer(ITIMER_PROF, &off, nullptr);
  ::sigaction(SIGPROF, &prev_action_, nullptr);
  g_active.store(nullptr, std::memory_order_release);
  if (prev_timer_.it_value.tv_sec != 0 || prev_timer_.it_value.tv_usec != 0) {
    ::setitimer(ITIMER_PROF, &prev_timer_, nullptr);
  }
  // A handler that read g_active just before the clear may still be filling
  // its slot on another thread. The grace period lets it finish; Aggregate
  // additionally skips any slot whose committed flag never lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  running_ = false;
  last_ = Aggregate(seconds);
  return last_;
}

std::uint64_t SamplingProfiler::captured() const {
  // relaxed-ok: advisory progress read
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  return std::min<std::uint64_t>(head, options_.ring_slots);
}

std::uint64_t SamplingProfiler::dropped() const {
  // relaxed-ok: advisory progress read
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  return head > options_.ring_slots ? head - options_.ring_slots : 0;
}

Profile SamplingProfiler::Aggregate(double seconds) const {
  Profile profile;
  profile.hz = options_.hz;
  profile.seconds = seconds;
  profile.dropped = dropped();

  const std::uint64_t filled = std::min<std::uint64_t>(
      // relaxed-ok: the per-slot committed acquires below order the contents
      head_.load(std::memory_order_relaxed), options_.ring_slots);

  std::map<const char*, std::uint64_t> phase_counts;
  std::unordered_map<void*, std::string> symbol_cache;
  std::map<std::string, std::uint64_t> stack_counts;

  for (std::uint64_t i = 0; i < filled; ++i) {
    const Sample& sample = ring_[i];
    // Pairs with the handler's release store; an uncommitted slot (handler
    // interrupted mid-fill at Stop()) is skipped, not torn-read.
    if (sample.committed.load(std::memory_order_acquire) == 0) continue;
    ++profile.samples;
    const char* phase =
        sample.phase != nullptr ? sample.phase : kUntaggedPhase;
    ++phase_counts[phase];

    if (sample.num_frames == 0) {
      ++stack_counts["(no stack)"];
      continue;
    }
    // Frames are leaf-first in the ring; folded format is outer-first.
    std::string folded;
    for (std::uint32_t f = sample.num_frames; f-- > 0;) {
      void* addr = sample.frames[f];
      auto it = symbol_cache.find(addr);
      if (it == symbol_cache.end()) {
        it = symbol_cache.emplace(addr, SymbolName(addr)).first;
      }
      if (!folded.empty()) folded += ';';
      folded += it->second;
    }
    ++stack_counts[folded];
  }

  for (const auto& [name, count] : phase_counts) {
    profile.phases.push_back(ProfilePhase{name, count});
  }
  std::sort(profile.phases.begin(), profile.phases.end(),
            [](const ProfilePhase& a, const ProfilePhase& b) {
              return a.samples > b.samples;
            });
  for (auto& [stack, count] : stack_counts) {
    profile.folded.push_back(ProfileStack{stack, count});
  }
  std::sort(profile.folded.begin(), profile.folded.end(),
            [](const ProfileStack& a, const ProfileStack& b) {
              return a.samples > b.samples;
            });
  return profile;
}

}  // namespace tsss::obs
