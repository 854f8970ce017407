// Fixture: query loops doing page I/O without reaching an ExecControl
// poll. Expected deadline-poll findings (golden counts in
// tsss_lint_test.cc):
//   1. DirectIoNoPoll — loop calls ReadWindow, never polls
//   2. TransitiveIoNoPoll — loop calls a helper that reaches LoadNode
//   3. ScanLoopNoPoll — loop reads nodes in place through ScanNode
// PolledLoop, TransitivePolledLoop, and WaivedLoop must NOT be flagged.

namespace tsss::index {

struct Status {
  bool ok() const;
};

struct Store {
  Status ReadWindow(int series, int offset);
  Status LoadNode(int id);
  template <typename Fn>
  Status ScanNode(int id, Fn&& fn);
};

struct Control {
  Status Check() const;
};

Control* CurrentExecControl();

// Helper that does I/O transitively (calls LoadNode) without polling.
Status VisitNode(Store* store, int id) {
  return store->LoadNode(id);
}

// Helper whose body polls: loops that call it are covered.
Status PollingVisit(Store* store, int id) {
  Control* control = CurrentExecControl();
  if (control != nullptr) {
    Status s = control->Check();
    if (!s.ok()) return s;
  }
  return store->LoadNode(id);
}

// Finding 1: direct page I/O, no poll anywhere in the loop.
void DirectIoNoPoll(Store* store, int n) {
  for (int i = 0; i < n; ++i) {
    Status s = store->ReadWindow(i, 0);
    if (!s.ok()) return;
  }
}

// Finding 2: the I/O hides one call level down; still no poll.
void TransitiveIoNoPoll(Store* store, int n) {
  for (int i = 0; i < n; ++i) {
    Status s = VisitNode(store, i);
    if (!s.ok()) return;
  }
}

// Finding 3: an in-place node walk is page I/O too; no poll.
int ScanLoopNoPoll(Store* store, int n) {
  int entries = 0;
  for (int i = 0; i < n; ++i) {
    Status s = store->ScanNode(i, [&entries](int size) { entries += size; });
    if (!s.ok()) return -1;
  }
  return entries;
}

// Clean: polls directly in the body.
void PolledLoop(Store* store, int n) {
  for (int i = 0; i < n; ++i) {
    Control* control = CurrentExecControl();
    if (control != nullptr && !control->Check().ok()) return;
    Status s = store->ReadWindow(i, 0);
    if (!s.ok()) return;
  }
}

// Clean: the callee polls, which covers the loop transitively.
void TransitivePolledLoop(Store* store, int n) {
  for (int i = 0; i < n; ++i) {
    Status s = PollingVisit(store, i);
    if (!s.ok()) return;
  }
}

// Clean: bounded two-iteration retry, deadline coverage waived.
void WaivedLoop(Store* store) {
  // poll-ok: fixed two-iteration retry, bounded work per query
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status s = store->ReadWindow(0, 0);
    if (s.ok()) return;
  }
}

}  // namespace tsss::index
