/**
 * @file
 * The engine's placement price table against the analytic model it
 * memoizes, bit for bit.
 *
 * ExecutionEngine charges each dispatch from a table with one cell per
 * (resolution, batch, degree, bottleneck class), filled on first use
 * by StepCostModel::StepTimeOnMaskUs on the real mask. The key is
 * exact only if every mask in a cell prices to the same double, so
 * this sweep walks every non-empty mask of three fabrics, every
 * resolution and batch 1..8 through one table — later masks land on
 * cells an earlier mask filled — and compares with EXPECT_EQ, never
 * NEAR. On A40 the same degree spans NVLink-only and PCIe-crossing
 * masks, so a table keyed by degree alone fails there. A second test
 * dispatches on every A40 mask and checks the GPU time the engine
 * charged against the analytic price and jitter replayed from the
 * engine's seed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"
#include "serving/engine.h"
#include "serving/latent_manager.h"
#include "serving/request_tracker.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/rounding.h"

namespace tetri::serving {
namespace {

using cluster::Topology;
using costmodel::kAllResolutions;
using costmodel::ModelConfig;
using costmodel::Resolution;
using costmodel::StepCostModel;

constexpr int kMaxBatch = 8;
constexpr std::uint64_t kEngineSeed = 7;

/** One engine over one (model, fabric) pair. */
struct Rig {
  Rig(ModelConfig m, Topology t)
      : model(std::move(m)),
        topo(std::move(t)),
        cost(&model, &topo),
        latents(&cost),
        engine(&sim, &cost, &tracker, &latents, kEngineSeed)
  {
  }

  ModelConfig model;
  Topology topo;
  StepCostModel cost;
  sim::Simulator sim;
  RequestTracker tracker;
  LatentManager latents;
  ExecutionEngine engine;
};

struct Fabric {
  std::string name;
  Topology topo;
};

std::vector<Fabric>
Fabrics()
{
  return {{"H100x8", Topology::H100Node(8)},
          {"A40x4", Topology::A40Node(4)},
          {"A40x8", Topology::A40Node(8)}};
}

TEST(PlacementPriceTest, EveryMaskPricesBitIdenticalToTheAnalyticModel)
{
  for (const Fabric& fabric : Fabrics()) {
    for (const ModelConfig& model :
         {ModelConfig::FluxDev(), ModelConfig::Sd3Medium()}) {
      Rig rig(model, fabric.topo);
      const GpuMask all = rig.topo.all_gpus();
      // Two passes: the first fills cells (each from whichever mask
      // reaches it first), the second reads them warm.
      for (int pass = 0; pass < 2; ++pass) {
        for (Resolution res : kAllResolutions) {
          for (int batch = 1; batch <= kMaxBatch; ++batch) {
            for (GpuMask mask = 1; mask <= all; ++mask) {
              EXPECT_EQ(rig.engine.prices().StepTimeUs(res, batch, mask),
                        rig.cost.StepTimeOnMaskUs(res, batch, mask))
                  << fabric.name << " " << model.name << " res "
                  << costmodel::ResolutionName(res) << " batch " << batch
                  << " mask " << cluster::MaskToString(mask) << " pass "
                  << pass;
            }
          }
        }
      }
      for (Resolution res : kAllResolutions) {
        for (int degree = 1; degree <= rig.topo.num_gpus(); ++degree) {
          EXPECT_EQ(rig.engine.prices().JitterCv(res, degree),
                    rig.cost.JitterCv(res, degree))
              << fabric.name << " degree " << degree;
        }
      }
    }
  }
}

TEST(PlacementPriceTest, BatchesAboveEverySeenBatchExtendTheTable)
{
  Rig rig(ModelConfig::Sd3Medium(), Topology::A40Node(4));
  auto& prices = rig.engine.prices();
  // Fill a small-batch cell, jump far past it, then come back: the
  // early cell must survive the growth untouched.
  const double small = prices.StepTimeUs(Resolution::k512, 2, 0b0110);
  EXPECT_EQ(prices.StepTimeUs(Resolution::k512, 64, 0b0011),
            rig.cost.StepTimeOnMaskUs(Resolution::k512, 64, 0b0011));
  EXPECT_EQ(prices.StepTimeUs(Resolution::k512, 2, 0b0101), small);
  EXPECT_EQ(small, rig.cost.StepTimeOnMaskUs(Resolution::k512, 2, 0b0110));
}

TEST(PlacementPriceTest, DispatchChargesTheAnalyticPriceOnEveryA40Mask)
{
  const Topology topo = Topology::A40Node(4);
  for (GpuMask mask = 1; mask <= topo.all_gpus(); ++mask) {
    Rig rig(ModelConfig::Sd3Medium(), topo);
    const int batch = 2;
    const int steps = 3;
    const Resolution res = Resolution::k1024;
    Assignment a;
    for (RequestId id = 0; id < batch; ++id) {
      workload::TraceRequest meta;
      meta.id = id;
      meta.deadline_us = UsFromSec(100);
      meta.resolution = res;
      meta.num_steps = 10;
      rig.tracker.Admit(meta);
      a.requests.push_back(id);
    }
    a.mask = mask;
    a.max_steps = steps;
    rig.engine.Dispatch(a);
    rig.sim.RunAll();

    // Replay the engine's jitter draws from its seed on the analytic
    // price: the GPU time it credited must match to the microsecond.
    const int degree = cluster::Popcount(mask);
    const double mean = rig.cost.StepTimeOnMaskUs(res, batch, mask);
    const double cv = rig.cost.JitterCv(res, degree);
    Rng rng(kEngineSeed);
    double exec_us = 0.0;
    for (int s = 0; s < steps; ++s) {
      exec_us += mean * std::max(0.5, rng.NextGaussian(1.0, cv));
    }
    const double expected_gpu_us =
        static_cast<double>(degree) *
        static_cast<double>(util::RoundUs(exec_us)) / batch;
    for (RequestId id = 0; id < batch; ++id) {
      EXPECT_EQ(rig.tracker.Get(id).steps_done, steps);
      EXPECT_EQ(rig.tracker.Get(id).gpu_time_us, expected_gpu_us)
          << "mask " << cluster::MaskToString(mask);
    }
  }
}

}  // namespace
}  // namespace tetri::serving
