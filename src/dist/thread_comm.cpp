#include "dist/thread_comm.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "check/contract.hpp"
#include "check/rendezvous.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"

namespace rcf::dist {

namespace {

std::size_t as_index(int value) { return static_cast<std::size_t>(value); }

}  // namespace

namespace detail {

struct GroupState {
  GroupState(int size, AllreduceAlgo algo_in, check::CheckOptions check_in)
      : world_size(size),
        algo(algo_in),
        check(check_in),
        rendezvous(size),
        publish(as_index(size), nullptr),
        publish_len(as_index(size), 0),
        work_a(as_index(size)),
        work_b(as_index(size)),
        exceptions(as_index(size)) {
    if (check.enabled) {
      board = std::make_unique<check::ContractBoard>(size, check);
    }
  }

  int world_size;
  AllreduceAlgo algo;
  check::CheckOptions check;
  /// Data-movement rendezvous, stall-timeout bounded and poisonable.
  check::TimedBarrier rendezvous;
  /// Pre-data fingerprint exchange; null when checking is disabled.
  std::unique_ptr<check::ContractBoard> board;
  // Per-rank published buffer pointers for the collective in flight.
  std::vector<double*> publish;
  std::vector<std::size_t> publish_len;
  // Double-buffered per-rank workspaces for recursive doubling.
  std::vector<std::vector<double>> work_a;
  std::vector<std::vector<double>> work_b;
  // Central-reduce scratch (owned by rank 0 during the collective).
  std::vector<double> scratch;
  std::vector<std::exception_ptr> exceptions;
};

/// One posted-but-not-yet-waited nonblocking collective of a ThreadComm
/// endpoint.  The op OWNS its payload: `buf` is a snapshot of the user span
/// taken at post time, the progress thread reduces into `buf`, and the
/// result is copied back to the user span only at the first successful
/// wait().  An exception unwinding the SPMD body therefore never races the
/// progress thread over engine-owned memory -- dropped handles only ever
/// touch op-owned storage.
class ThreadPendingOp final : public PendingOp {
 public:
  ThreadPendingOp(std::shared_ptr<AsyncQueue> queue, CommStats* stats,
                  std::span<double> user, std::int64_t seq_in)
      : queue_(std::move(queue)),
        stats_(stats),
        buf(user.begin(), user.end()),
        dst_(user.data()),
        seq(seq_in) {}

  void wait() override;
  [[nodiscard]] bool test() override;

  std::shared_ptr<AsyncQueue> queue_;
  CommStats* stats_;  ///< overlap credit target; main-thread use only
  std::vector<double> buf;  ///< op-owned payload (reduced in place)
  double* dst_;             ///< user span, written at first wait
  std::int64_t seq;
  // Completion state, guarded by queue_->mu.
  bool done = false;
  bool consumed = false;  ///< first wait already copied back / credited
  std::exception_ptr error;
};

/// Per-endpoint async machinery: a FIFO of posted ops and the progress
/// thread that drains it.  The front op is popped only after it completes,
/// so `pending.empty()` means fully quiesced.
struct AsyncQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::shared_ptr<ThreadPendingOp>> pending;
  bool stop = false;
  std::thread worker;
};

void ThreadPendingOp::wait() {
  std::unique_lock<std::mutex> lk(queue_->mu);
  const bool overlapped = done;
  if (!done) {
    // The pipeline's exposed communication time: the reduction was not
    // finished when the consumer asked for it.
    obs::TraceScope span("allreduce_wait", 0.0, seq);
    queue_->cv.wait(lk, [this] { return done; });
  }
  if (!consumed) {
    consumed = true;
    if (error == nullptr) {
      std::copy(buf.begin(), buf.end(), dst_);
      if (overlapped) {
        stats_->overlapped_words += buf.size();
      }
    }
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

bool ThreadPendingOp::test() {
  std::lock_guard<std::mutex> lk(queue_->mu);
  return done;
}

}  // namespace detail

using detail::AsyncQueue;
using detail::GroupState;
using detail::ThreadPendingOp;

ThreadComm::ThreadComm(int rank, int size, GroupState* state)
    : rank_(rank), size_(size), state_(state) {}

ThreadComm::~ThreadComm() {
  if (async_ == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(async_->mu);
    async_->stop = true;
  }
  async_->cv.notify_all();
  async_->worker.join();
}

void ThreadComm::rendezvous(const char* what) {
  state_->rendezvous.arrive_and_wait(rank_, state_->check.timeout_ms, what);
}

void ThreadComm::quiesce() {
  if (async_ == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> lk(async_->mu);
  if (async_->pending.empty()) {
    return;
  }
  // Drain time shows up as plain wait: the caller issued a blocking
  // collective with reductions still in flight.
  obs::TraceScope span(aux_mode() ? "aux_wait" : "allreduce_wait");
  async_->cv.wait(lk, [this] { return async_->pending.empty(); });
}

void ThreadComm::async_worker() {
  // Attribute the progress thread's spans and log lines to its rank.
  obs::set_thread_rank(rank_);
  set_log_rank(rank_);
  std::unique_lock<std::mutex> lk(async_->mu);
  for (;;) {
    async_->cv.wait(lk,
                    [this] { return async_->stop || !async_->pending.empty(); });
    if (async_->pending.empty()) {
      if (async_->stop) {
        return;  // drained and told to stop
      }
      continue;
    }
    // Keep the op at the front while it runs: pending.empty() must mean
    // "no reduction in flight" for quiesce().
    std::shared_ptr<ThreadPendingOp> op = async_->pending.front();
    lk.unlock();
    std::exception_ptr err = nullptr;
    try {
      execute_async(*op);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    op->error = err;
    op->done = true;
    async_->pending.pop_front();
    async_->cv.notify_all();
  }
}

void ThreadComm::execute_async(ThreadPendingOp& op) {
  // The reduction span keeps the blocking path's name so the
  // "allreduce spans == allreduce calls" invariant holds for async runs
  // too; the inner publish/reduce waits are untimed (timed=false) because
  // progress-thread idle time is overlap, not caller blocking.
  obs::TraceScope span("allreduce", static_cast<double>(op.buf.size()),
                       op.seq);
  const std::span<double> payload(op.buf.data(), op.buf.size());
  if (state_->algo == AllreduceAlgo::kRecursiveDoubling &&
      (size_ & (size_ - 1)) == 0) {
    allreduce_recursive_doubling(payload, op.seq, /*timed=*/false);
  } else {
    allreduce_central(payload, op.seq, /*timed=*/false);
  }
}

CommHandle ThreadComm::iallreduce_sum(std::span<double> inout,
                                      std::source_location site) {
  if (aux_mode()) {
    // Aux traffic never overlaps: degrade to the blocking path (which
    // emits the aux span names and skips stats).
    allreduce_sum(inout, site);
    return CommHandle(std::make_shared<detail::CompletedOp>());
  }
  const std::int64_t seq = next_span_seq();
  obs::TraceScope span("allreduce_post", static_cast<double>(inout.size()),
                       seq);
  contract_check(check::CollectiveKind::kIallreduceSum, inout.size(), seq,
                 site);
  stats_.count_allreduce(inout.size());
  if (async_ == nullptr) {
    async_ = std::make_shared<AsyncQueue>();
    async_->worker = std::thread([this] { async_worker(); });
  }
  auto op = std::make_shared<ThreadPendingOp>(async_, &stats_, inout, seq);
  {
    std::lock_guard<std::mutex> lk(async_->mu);
    async_->pending.push_back(op);
  }
  async_->cv.notify_all();
  return CommHandle(std::move(op));
}

void ThreadComm::contract_check(check::CollectiveKind kind, std::size_t words,
                                std::int64_t seq,
                                const std::source_location& site) {
  if (state_->board == nullptr) {
    return;
  }
  const check::Fingerprint fp = tracker_.next(kind, words, aux_mode(), site);
  state_->board->verify(rank_, fp, seq);
}

std::int64_t ThreadComm::next_span_seq() {
  return aux_mode() ? -1 : collective_seq_++;
}

void ThreadComm::allreduce_sum(std::span<double> inout,
                               std::source_location site) {
  quiesce();
  const std::int64_t seq = next_span_seq();
  obs::TraceScope span(aux_mode() ? "aux_collective" : "allreduce",
                       static_cast<double>(inout.size()), seq);
  contract_check(check::CollectiveKind::kAllreduceSum, inout.size(), seq,
                 site);
  if (!aux_mode()) {
    stats_.count_allreduce(inout.size());
  }
  if (state_->algo == AllreduceAlgo::kRecursiveDoubling &&
      (size_ & (size_ - 1)) == 0) {
    allreduce_recursive_doubling(inout, seq);
  } else {
    allreduce_central(inout, seq);
  }
}

void ThreadComm::allreduce_central(std::span<double> inout, std::int64_t seq,
                                   bool timed) {
  GroupState& st = *state_;
  st.publish[as_index(rank_)] = inout.data();
  st.publish_len[as_index(rank_)] = inout.size();
  {
    // Time waiting for the slowest rank to publish: the skew signal.
    // Untimed on the async progress thread -- its idle time is overlap,
    // not caller blocking, and must not count as rendezvous skew.
    std::optional<obs::TraceScope> wait;
    if (timed) {
      wait.emplace(aux_mode() ? "aux_wait" : "allreduce_wait", 0.0, seq);
    }
    rendezvous("allreduce:publish");
  }
  if (rank_ == 0) {
    const std::size_t n = inout.size();
    for (int r = 1; r < size_; ++r) {
      RCF_CHECK_MSG(st.publish_len[as_index(r)] == n,
                    "allreduce: ranks disagree on payload size");
    }
    st.scratch.assign(inout.begin(), inout.end());
    for (int r = 1; r < size_; ++r) {
      const double* src = st.publish[as_index(r)];
      for (std::size_t i = 0; i < n; ++i) {
        st.scratch[i] += src[i];
      }
    }
  }
  {
    // Time blocked on the reduction itself (rank 0's serial combine).
    // Split from the publish wait: "a rank arrived late" (allreduce_wait)
    // versus "the reduction serialized us" (reduce_wait).
    std::optional<obs::TraceScope> wait;
    if (timed) {
      wait.emplace(aux_mode() ? "aux_wait" : "reduce_wait", 0.0, seq);
    }
    rendezvous("allreduce:reduce");
  }
  std::copy(st.scratch.begin(), st.scratch.end(), inout.begin());
  rendezvous("allreduce:release");  // protect scratch until all have copied
}

void ThreadComm::allreduce_recursive_doubling(std::span<double> inout,
                                              std::int64_t seq, bool timed) {
  GroupState& st = *state_;
  const std::size_t n = inout.size();
  auto* cur = &st.work_a;
  auto* nxt = &st.work_b;
  (*cur)[as_index(rank_)].assign(inout.begin(), inout.end());
  {
    std::optional<obs::TraceScope> wait;
    if (timed) {
      wait.emplace(aux_mode() ? "aux_wait" : "allreduce_wait", 0.0, seq);
    }
    rendezvous("allreduce:publish");
  }
  for (int stride = 1; stride < size_; stride <<= 1) {
    const int partner = rank_ ^ stride;
    auto& mine = (*cur)[as_index(rank_)];
    auto& theirs = (*cur)[as_index(partner)];
    RCF_CHECK_MSG(theirs.size() == n, "recursive doubling: size mismatch");
    auto& out = (*nxt)[as_index(rank_)];
    out.resize(n);
    // Combine in (lower, upper) order on both sides so the pair agrees
    // bitwise even for non-associative float addition.
    const auto& lo = rank_ < partner ? mine : theirs;
    const auto& hi = rank_ < partner ? theirs : mine;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = lo[i] + hi[i];
    }
    {
      // Time blocked on the partner's pairwise stage.
      std::optional<obs::TraceScope> wait;
      if (timed) {
        wait.emplace(aux_mode() ? "aux_wait" : "reduce_wait", 0.0, seq);
      }
      rendezvous("allreduce:exchange");
    }
    std::swap(cur, nxt);
  }
  std::copy((*cur)[as_index(rank_)].begin(), (*cur)[as_index(rank_)].end(),
            inout.begin());
  rendezvous("allreduce:release");
}

ThreadGroup::ThreadGroup(int size, AllreduceAlgo algo,
                         check::CheckOptions check)
    : size_(size), algo_(algo) {
  RCF_CHECK_MSG(size >= 1, "ThreadGroup: size must be >= 1");
  state_ = std::make_unique<GroupState>(size, algo, check);
}

ThreadGroup::~ThreadGroup() = default;

void ThreadGroup::run(const std::function<void(ThreadComm&)>& body) {
  std::fill(state_->exceptions.begin(), state_->exceptions.end(), nullptr);
  state_->rendezvous.reset();
  if (state_->board != nullptr) {
    state_->board->reset();
  }
  last_stats_ = CommStats{};
  std::vector<CommStats> rank_stats(as_index(size_));
  std::vector<std::thread> threads;
  threads.reserve(as_index(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &body, &rank_stats]() {
      // Attribute this thread's spans and log lines to its SPMD rank.
      obs::set_thread_rank(r);
      set_log_rank(r);
      ThreadComm comm(r, size_, state_.get());
      try {
        // Start barrier: thread-start skew (several ms under load or a
        // sanitizer) would otherwise land in the body's first collective
        // and be charged to that collective's straggler.  The timed
        // rendezvous still names a rank that never arrives.
        state_->rendezvous.arrive_and_wait(r, state_->check.timeout_ms,
                                           "run:start");
        body(comm);
      } catch (const std::exception& e) {
        state_->exceptions[as_index(r)] = std::current_exception();
        // Wake every rank blocked in a rendezvous: the SPMD contract is
        // that a throwing body aborts the whole run, and poisoning turns
        // what used to be a deadlock into prompt CommPoisoned failures on
        // the surviving ranks.
        state_->rendezvous.poison("rank " + std::to_string(r) +
                                  " aborted: " + e.what());
        if (state_->board != nullptr) {
          state_->board->poison("rank " + std::to_string(r) +
                                " aborted: " + e.what());
        }
      } catch (...) {
        state_->exceptions[as_index(r)] = std::current_exception();
        state_->rendezvous.poison("rank " + std::to_string(r) +
                                  " aborted with a non-standard exception");
        if (state_->board != nullptr) {
          state_->board->poison("rank " + std::to_string(r) + " aborted");
        }
      }
      rank_stats[as_index(r)] = comm.stats();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const auto& s : rank_stats) {
    last_stats_ += s;
  }
  if (obs::TraceSession::global().enabled()) {
    publish_comm_stats(last_stats_, "thread");
  }
  // Rethrow the first *primary* failure by rank order: CommPoisoned is a
  // secondary symptom (the rank was woken because another rank failed), so
  // it is reported only when no rank holds a primary exception.
  std::exception_ptr fallback = nullptr;
  for (int r = 0; r < size_; ++r) {
    const std::exception_ptr err = state_->exceptions[as_index(r)];
    if (err == nullptr) {
      continue;
    }
    try {
      std::rethrow_exception(err);
    } catch (const check::CommPoisoned&) {
      if (fallback == nullptr) {
        fallback = err;
      }
    } catch (...) {
      std::rethrow_exception(err);
    }
  }
  if (fallback != nullptr) {
    std::rethrow_exception(fallback);
  }
}

}  // namespace rcf::dist
