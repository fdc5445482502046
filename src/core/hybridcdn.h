// Umbrella header: the paper's pipeline — scenario, workload, the Section 4
// placement algorithms and their baselines, cost accounting, the simulators
// and the summary tables.  Extensions and internals (per-cluster
// replication, adaptive replanning, server selection, the concrete cache
// policies, model internals, topology generators, CLI helpers)
// are not included: include their headers directly.
//
// Quick start:
//
//   #include "src/core/hybridcdn.h"
//
//   cdn::core::ScenarioConfig cfg;          // paper defaults (N=50, M=200)
//   cfg.storage_fraction = 0.05;            // 5% capacity
//   cdn::core::Scenario scenario(cfg);
//
//   auto runs = cdn::core::run_mechanisms(
//       scenario,
//       {cdn::core::replication_mechanism(), cdn::core::caching_mechanism(),
//        cdn::core::hybrid_mechanism()},
//       cdn::sim::SimulationConfig{});
//   std::cout << cdn::core::summary_table(runs).str();

#pragma once

#include "src/cache/cache_factory.h"
#include "src/cdn/cost.h"
#include "src/cdn/distance_oracle.h"
#include "src/cdn/nearest_replica.h"
#include "src/cdn/replication.h"
#include "src/cdn/system.h"
#include "src/core/experiment.h"
#include "src/core/scenario.h"
#include "src/fault/fault_schedule.h"
#include "src/placement/fixed_split.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/sim/simulator.h"
#include "src/util/cdf.h"
#include "src/util/table.h"
#include "src/workload/demand.h"
#include "src/workload/request_stream.h"
#include "src/workload/site_catalog.h"
