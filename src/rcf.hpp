// Umbrella header: the full public API of the RC-SFISTA library.
//
//   #include "rcf.hpp"
//
// See README.md for a quickstart and DESIGN.md for the architecture map.
#pragma once

#include "common/cli.hpp"        // IWYU pragma: export
#include "common/error.hpp"      // IWYU pragma: export
#include "common/json.hpp"       // IWYU pragma: export
#include "common/log.hpp"        // IWYU pragma: export
#include "common/rng.hpp"        // IWYU pragma: export
#include "common/table.hpp"      // IWYU pragma: export
#include "common/timer.hpp"      // IWYU pragma: export
#include "core/distributed.hpp"  // IWYU pragma: export
#include "core/engine.hpp"       // IWYU pragma: export
#include "core/logistic.hpp"     // IWYU pragma: export
#include "core/momentum.hpp"     // IWYU pragma: export
#include "core/options.hpp"      // IWYU pragma: export
#include "core/problem.hpp"      // IWYU pragma: export
#include "core/prox_cocoa.hpp"   // IWYU pragma: export
#include "core/prox_newton.hpp"  // IWYU pragma: export
#include "core/result.hpp"       // IWYU pragma: export
#include "core/solvers.hpp"      // IWYU pragma: export
#include "data/dataset.hpp"      // IWYU pragma: export
#include "data/partition.hpp"    // IWYU pragma: export
#include "data/synthetic.hpp"    // IWYU pragma: export
#include "dist/comm.hpp"         // IWYU pragma: export
#include "dist/thread_comm.hpp"  // IWYU pragma: export
#include "exec/pool.hpp"         // IWYU pragma: export
#include "la/backend.hpp"        // IWYU pragma: export
#include "la/blas.hpp"           // IWYU pragma: export
#include "la/eigen.hpp"          // IWYU pragma: export
#include "la/matrix.hpp"         // IWYU pragma: export
#include "la/vector.hpp"         // IWYU pragma: export
#include "model/cost.hpp"        // IWYU pragma: export
#include "model/formulas.hpp"    // IWYU pragma: export
#include "model/machine.hpp"     // IWYU pragma: export
#include "obs/convergence.hpp"   // IWYU pragma: export
#include "obs/cost_ledger.hpp"   // IWYU pragma: export
#include "obs/critpath.hpp"      // IWYU pragma: export
#include "obs/live.hpp"          // IWYU pragma: export
#include "obs/metrics.hpp"       // IWYU pragma: export
#include "obs/perfctr.hpp"       // IWYU pragma: export
#include "obs/telemetry.hpp"     // IWYU pragma: export
#include "obs/timeline.hpp"      // IWYU pragma: export
#include "obs/trace.hpp"         // IWYU pragma: export
#include "obs/watchdog.hpp"      // IWYU pragma: export
#include "prox/operators.hpp"    // IWYU pragma: export
#include "sparse/csr.hpp"        // IWYU pragma: export
#include "sparse/generate.hpp"   // IWYU pragma: export
#include "sparse/gram.hpp"       // IWYU pragma: export
#include "sparse/io.hpp"         // IWYU pragma: export
