// Fixture: manual pin handling that leaks on at least one path. Expected
// pin-pairing findings (golden counts in tsss_lint_test.cc):
//   1. LeakOnEarlyReturn — pinned frame not released on the error return
//   2. BareAcquire — acquisition result never bound
//   3. DanglingRef — Page reference outliving its inline guard temporary
//   4. DanglingView — NodeView over the page of an inline guard temporary
// CleanPaired and WaivedLeak must NOT be flagged.

namespace tsss::storage {

struct Frame {
  int id = 0;
};

struct Pool {
  Frame* Pin(int id);
  void Unpin(Frame* frame);
  bool Ready(int id);
};

// Finding 1: on the `!pool->Ready(id)` path the function returns with the
// pin still held.
int LeakOnEarlyReturn(Pool* pool, int id) {
  Frame* frame = pool->Pin(id);
  if (!pool->Ready(id)) {
    return -1;
  }
  int out = frame->id;
  pool->Unpin(frame);
  return out;
}

// Finding 2: the acquisition binds nothing; the pin leaks at the semicolon.
void BareAcquire(Pool* pool, int id) {
  pool->Pin(id);
}

// Clean: released on both the early-return path and the fall-through.
int CleanPaired(Pool* pool, int id) {
  Frame* frame = pool->Pin(id);
  if (!pool->Ready(id)) {
    pool->Unpin(frame);
    return -1;
  }
  int out = frame->id;
  pool->Unpin(frame);
  return out;
}

// Clean: the waiver covers an intentional long-lived pin.
Frame* WaivedLeak(Pool* pool, int id) {
  Frame* frame = pool->Pin(id);  // pin-ok: caller owns the pin and unpins it
  return frame;
}

struct Page {
  int bytes[8];
};

struct GuardResult {
  Page& page();
};

struct GuardPool {
  GuardResult Fetch(int id);
};

// Finding 3: the guard temporary dies at the semicolon; `p` dangles.
int DanglingRef(GuardPool* pool, int id) {
  Page& p = pool->Fetch(id).page();
  return p.bytes[0];
}

struct NodeView {
  int level() const;
};

template <typename T>
struct Result {
  const T* operator->() const;
};

struct Codec {
  Result<NodeView> View(const Page& page) const;
};

// Finding 4: the view points into a page whose pin died with the temporary
// guard at the semicolon.
int DanglingView(GuardPool* pool, const Codec& codec, int id) {
  Result<NodeView> view = codec.View(pool->Fetch(id).page());
  return view->level();
}

// Clean: a copy of the page owns its bytes.
int CopiedPage(GuardPool* pool, int id) {
  Page copy = pool->Fetch(id).page();
  return copy.bytes[0];
}

}  // namespace tsss::storage
