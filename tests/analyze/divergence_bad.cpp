// Seeded-bad fixture for the collective-divergence check.  Each marked
// line must produce exactly that finding; tests/test_analyze.cpp analyzes
// this file with scope_as=src/core/fixture.cpp so the src/-scoped rules
// apply.
//
// This corpus is excluded from the repo-wide sweep; it never compiles as
// part of the build.
#include <vector>

namespace fixture {

struct Comm {
  int rank();
  int size();
  void allreduce_sum(std::vector<double>& v);
  void broadcast(std::vector<double>& v, int root);
  void barrier();
};

void diverged_direct(Comm& comm, std::vector<double>& buf) {
  if (comm.rank() == 0) {
    comm.allreduce_sum(buf);  // BAD(collective-divergence)
  }
  comm.barrier();
}

void diverged_via_taint(Comm& comm, std::vector<double>& buf) {
  const int leader = comm.rank();
  while (leader != 0) {
    comm.broadcast(buf, 0);  // BAD(collective-divergence)
  }
}

void diverged_chained_taint(Comm& comm, std::vector<double>& buf) {
  const int r = comm.rank();
  const int is_leader = r == 0 ? 1 : 0;
  if (is_leader != 0) {
    comm.barrier();  // BAD(collective-divergence)
  }
}

void diverged_ternary(Comm& comm, std::vector<double>& buf) {
  const int r = comm.rank();
  const int v = r == 0 ? (comm.barrier(), 0) : 1;  // BAD(collective-divergence)
  (void)v;
  (void)buf;
}

void diverged_switch(Comm& comm, std::vector<double>& buf) {
  switch (comm.rank()) {
    case 0:
      comm.allreduce_sum(buf);  // BAD(collective-divergence)
      break;
    default:
      break;
  }
}

}  // namespace fixture
