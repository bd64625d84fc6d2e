/**
 * @file
 * Self-test of the benchmark's probes on hand-built event sequences:
 * the replay probe must classify each simulator handler, rebuild a
 * request's virtual latency from its parts exactly, price dispatches
 * and flag island-straddling GPU sets; the runtime probe must match
 * each hop by request id and GPU mask. Exit status 0 when every check
 * holds. Run with `python3 perfbench/run.py --self-test`.
 */
#include <cmath>
#include <cstdio>

#include "cluster/topology.h"
#include "costmodel/latency_table.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"
#include "probes.h"
#include "report.h"
#include "workload/trace.h"

namespace {

int failures = 0;

void
Expect(bool ok, const char* what)
{
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

using tetri::trace::TraceEvent;
using tetri::trace::TraceEventKind;

TraceEvent
Event(TraceEventKind kind, tetri::TimeUs time_us)
{
  TraceEvent ev;
  ev.kind = kind;
  ev.time_us = time_us;
  return ev;
}

void
ReplayProbeTest()
{
  const auto model = tetri::costmodel::ModelConfig::Sd3Medium();
  const auto topology = tetri::cluster::Topology::A40Node(4);
  const tetri::costmodel::StepCostModel cost(&model, &topology);
  const auto table = tetri::costmodel::LatencyTable::Profile(cost, 2, 2, 1);
  tetri::workload::Trace trace;
  for (int i = 0; i < 2; ++i) {
    tetri::workload::TraceRequest req;
    req.id = i;
    req.resolution = tetri::costmodel::Resolution::k512;
    req.num_steps = 2;
    trace.requests.push_back(req);
  }

  perfbench::ReplayProbe probe(&trace, &table, &topology);
  probe.Begin();
  probe.OnEvent(Event(TraceEventKind::kEventScheduled, 0));  // prologue

  // Arrival handler.
  probe.OnEvent(Event(TraceEventKind::kEventFired, 0));
  TraceEvent admit = Event(TraceEventKind::kAdmit, 0);
  admit.request = 0;
  probe.OnEvent(admit);

  // Round tick that plans and dispatches request 0 on GPUs {0, 2},
  // which straddle the two NVLink pairs.
  probe.OnEvent(Event(TraceEventKind::kEventFired, 50));
  probe.OnPlanEnter(perfbench::NowNs());
  probe.OnPlanExit(tetri::serving::RoundPlan{}, perfbench::NowNs());
  TraceEvent dispatch = Event(TraceEventKind::kDispatch, 50);
  dispatch.mask = 0b101;
  dispatch.degree = 2;
  dispatch.steps = 2;
  dispatch.batch = 1;
  dispatch.dur_us = 1000;
  dispatch.value = 100.0;
  probe.OnEvent(dispatch);
  TraceEvent member = Event(TraceEventKind::kMember, 50);
  member.request = 0;
  member.mask = 0b101;
  probe.OnEvent(member);
  probe.OnEvent(Event(TraceEventKind::kEventScheduled, 50));  // completion
  probe.OnEvent(Event(TraceEventKind::kEventScheduled, 50));  // next tick

  // Completion handler: the last step ends at 1050, decode until 1250.
  probe.OnEvent(Event(TraceEventKind::kEventFired, 1050));
  TraceEvent complete = Event(TraceEventKind::kComplete, 1050);
  complete.mask = 0b101;
  probe.OnEvent(complete);
  TraceEvent finish = Event(TraceEventKind::kFinish, 1050);
  finish.request = 0;
  finish.value = 1250.0;
  probe.OnEvent(finish);

  // Round tick with nothing to plan.
  probe.OnEvent(Event(TraceEventKind::kEventFired, 2000));
  probe.OnEvent(Event(TraceEventKind::kEventScheduled, 2000));
  probe.OnEvent(Event(TraceEventKind::kRunEnd, 2000));
  probe.End();

  const perfbench::ReplaySplit& split = probe.split();
  Expect(split.events_fired == 4, "four handlers closed");
  Expect(split.plan_ticks == 1, "one planning tick");
  Expect(split.idle_ticks == 1, "one idle tick");
  Expect(split.other_events == 2, "arrival and completion are sim events");
  Expect(split.decomposition_mismatches == 0, "parts sum to latency");
  Expect(split.Attributed() <= probe.run_wall_s() + 1e-9,
         "attributed time fits in the run");
  Expect(split.unattributed_s < 1e-3, "every handler was attributed");

  Expect(probe.parts().size() == 1, "one completed request");
  if (probe.parts().size() == 1) {
    const perfbench::LatencyParts& p = probe.parts()[0];
    Expect(std::abs(p.latency - 1250e-6) < 1e-12, "latency 1250 us");
    Expect(std::abs(p.queue_wait - 50e-6) < 1e-12, "queue wait 50 us");
    Expect(std::abs(p.transfer_stall - 100e-6) < 1e-12, "transfer 100 us");
    Expect(std::abs(p.execution - 900e-6) < 1e-12, "execution 900 us");
    Expect(std::abs(p.tail - 200e-6) < 1e-12, "decode tail 200 us");
  }

  const double priced = table.StepTimeUs(tetri::costmodel::Resolution::k512,
                                         2, 1) * 2;
  Expect(probe.price_error().size() == 1, "one dispatch priced");
  Expect(probe.straddle_price_error().size() == 1,
         "GPUs {0, 2} straddle the NVLink pairs");
  if (probe.price_error().size() == 1) {
    Expect(std::abs(probe.price_error()[0] - std::abs(900.0 / priced - 1.0)) <
               1e-12,
           "price error is |charged / priced - 1|");
  }
}

void
RuntimeProbeTest()
{
  perfbench::RuntimeProbe probe(4);
  const std::int64_t t0 = perfbench::NowNs();
  probe.SetSubmitReturn(1, t0);
  TraceEvent admit = Event(TraceEventKind::kAdmit, 0);
  admit.request = 1;
  probe.OnEvent(admit);
  tetri::serving::RoundPlan plan;
  tetri::serving::Assignment assignment;
  assignment.requests = {1};
  assignment.mask = 0b11;
  assignment.max_steps = 4;
  plan.assignments.push_back(assignment);
  probe.OnPlanExit(plan, perfbench::NowNs());
  TraceEvent dispatch = Event(TraceEventKind::kDispatch, 0);
  dispatch.mask = 0b11;
  probe.OnEvent(dispatch);
  TraceEvent complete = Event(TraceEventKind::kComplete, 0);
  complete.mask = 0b11;
  probe.OnEvent(complete);
  probe.OnCompletion(1, perfbench::NowNs());
  // Ids beyond the probe's capacity are ignored, not written.
  probe.SetSubmitReturn(9, t0);
  probe.OnCompletion(9, t0);

  const perfbench::RuntimeHops hops = probe.Hops();
  Expect(hops.admit_wait_us.size() == 1, "one admit wait");
  Expect(hops.plan_wait_us.size() == 1, "one plan wait");
  Expect(hops.dispatch_wait_us.size() == 1, "one dispatch wait");
  Expect(hops.worker_us.size() == 1, "one worker span");
  Expect(hops.apply_us.size() == 1, "one apply hop");
  for (const auto* v : {&hops.admit_wait_us, &hops.plan_wait_us,
                        &hops.dispatch_wait_us, &hops.worker_us,
                        &hops.apply_us}) {
    for (double us : *v) Expect(us >= 0.0, "hops are not negative");
  }
}

}  // namespace

int
main()
{
  ReplayProbeTest();
  RuntimeProbeTest();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
