// Positive compile fixture for the thread-safety gate (DESIGN.md §13).
//
// Must compile CLEAN under Clang -Wthread-safety
// -Werror=thread-safety-analysis: it exercises every macro and wrapper in
// common/thread_annotations.h the way production code uses them — guarded
// members behind MutexLock scopes, REQUIRES helpers called under the lock,
// EXCLUDES entry points, manual Unlock/Lock on the scoped guard, and the
// explicit while-loop CondVar wait pattern (CondVar deliberately has no
// predicate overload; see thread_annotations.h). If an edit to the
// wrappers breaks this file, the wrappers — not this fixture — are wrong.
//
// Negative twin: tests/thread_safety_check.cc (registered WILL_FAIL).

#include "common/thread_annotations.h"

namespace {

class Ledger {
 public:
  void Deposit(int amount) ICROWD_EXCLUDES(mu_) {
    icrowd::MutexLock lock(mu_);
    balance_ += amount;
    changed_.NotifyAll();
  }

  int Balance() const ICROWD_EXCLUDES(mu_) {
    icrowd::MutexLock lock(mu_);
    return BalanceLocked();
  }

  // The canonical wait shape: explicit loop, lock reacquired on return.
  void AwaitAtLeast(int target) ICROWD_EXCLUDES(mu_) {
    icrowd::MutexLock lock(mu_);
    while (balance_ < target) changed_.Wait(lock);
  }

  // Manual Unlock/Lock on the scoped guard, as the Watchdog does.
  int DrainAndAudit() ICROWD_EXCLUDES(mu_) {
    icrowd::MutexLock lock(mu_);
    int drained = balance_;
    balance_ = 0;
    lock.Unlock();
    int audited = AuditOutsideLock(drained);
    lock.Lock();
    balance_ += audited - drained;
    return audited;
  }

 private:
  int BalanceLocked() const ICROWD_REQUIRES(mu_) { return balance_; }
  static int AuditOutsideLock(int amount) { return amount; }

  mutable icrowd::Mutex mu_;
  icrowd::CondVar changed_;
  int balance_ ICROWD_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Ledger ledger;
  ledger.Deposit(2);
  ledger.AwaitAtLeast(1);
  (void)ledger.DrainAndAudit();
  return ledger.Balance() == 0 ? 0 : 1;
}
