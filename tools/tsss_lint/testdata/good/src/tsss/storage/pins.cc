// Clean pin handling: RAII guards, manual pairs released on every path,
// and a justified waiver. The pin-pairing check must stay silent here.

namespace tsss::storage {

struct Frame {
  int id = 0;
};

struct PageGuard {
  explicit PageGuard(Frame* frame);
  ~PageGuard();
  Frame* frame();
};

struct Pool {
  Frame* Pin(int id);
  void Unpin(Frame* frame);
  PageGuard Fetch(int id);
  bool Ready(int id);
};

struct NodeView {
  int level() const;
};

NodeView ViewOf(Frame* frame);

// RAII: the guard releases on every path by construction.
int RaiiRead(Pool* pool, int id) {
  PageGuard guard = pool->Fetch(id);
  if (!pool->Ready(id)) return -1;
  return guard.frame()->id;
}

// A view bound over a named guard lives no longer than the pin.
int ViewOverNamedGuard(Pool* pool, int id) {
  PageGuard guard = pool->Fetch(id);
  NodeView view = ViewOf(guard.frame());
  return view.level();
}

// Manual pair, released on the early-return path and the fall-through.
int ManualPaired(Pool* pool, int id) {
  Frame* frame = pool->Pin(id);
  if (!pool->Ready(id)) {
    pool->Unpin(frame);
    return -1;
  }
  const int out = frame->id;
  pool->Unpin(frame);
  return out;
}

// Deliberate long-lived pin, handed to the caller with a stated reason.
Frame* HandOff(Pool* pool, int id) {
  Frame* frame = pool->Pin(id);  // pin-ok: transfer; caller unpins via Release
  return frame;
}

}  // namespace tsss::storage
