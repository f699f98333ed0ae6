// Concurrency stress for the event-driven controller service (src/svc) —
// the TSan lane's coverage of PR 7's shared-state paths: the lock-free
// MPSC inbox under producer contention, the double-buffered capture slot
// with a writer racing a reader, TrySubmit's one-deep task slot, and the
// full threaded service (control thread + async solver + producers).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/job_factory.h"
#include "core/apc_controller.h"
#include "core/double_buffer.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "svc/controller_service.h"
#include "svc/event_inbox.h"
#include "web/workload_generator.h"

namespace mwp {
namespace {

TEST(EventInboxStressTest, ManyProducersNoLossNoDuplication) {
  // 4 producers push disjoint job-id ranges through a ring big enough to
  // never overflow; the consumer drains concurrently. Every event must
  // come out exactly once, and each producer's events in its push order.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  EventInbox inbox(1 << 15);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&inbox, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ControlEvent e;
        e.kind = ControlEventKind::kJobArrival;
        e.job = p * kPerProducer + i;
        while (!inbox.TryPush(e)) std::this_thread::yield();
      }
    });
  }

  std::vector<int> seen_count(kProducers * kPerProducer, 0);
  std::vector<int> last_per_producer(kProducers, -1);
  std::vector<ControlEvent> batch;
  std::size_t drained = 0;
  while (drained < static_cast<std::size_t>(kProducers * kPerProducer)) {
    batch.clear();
    if (inbox.DrainInto(batch, 256) == 0) {
      inbox.WaitNonEmpty(/*timeout_ns=*/1'000'000);
      continue;
    }
    for (const ControlEvent& e : batch) {
      const int producer = e.job / kPerProducer;
      const int index = e.job % kPerProducer;
      ++seen_count[static_cast<std::size_t>(e.job)];
      // Per-producer FIFO: a producer's events drain in push order.
      EXPECT_GT(index, last_per_producer[static_cast<std::size_t>(producer)]);
      last_per_producer[static_cast<std::size_t>(producer)] = index;
    }
    drained += batch.size();
  }
  for (std::thread& t : producers) t.join();

  for (int count : seen_count) EXPECT_EQ(count, 1);
  EXPECT_EQ(inbox.pushed(), static_cast<std::uint64_t>(kProducers) *
                                static_cast<std::uint64_t>(kPerProducer));
  EXPECT_EQ(inbox.size(), 0u);
}

TEST(EventInboxStressTest, TinyRingUnderContentionAccountsEveryEvent) {
  // A deliberately overflowing ring: pushed + dropped must equal attempts,
  // and exactly the accepted events come out — shedding loses events, never
  // corrupts the ring.
  constexpr int kProducers = 4;
  constexpr int kAttemptsPer = 20'000;
  EventInbox inbox(8);
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&inbox, p] {
      for (int i = 0; i < kAttemptsPer; ++i) {
        ControlEvent e;
        e.kind = ControlEventKind::kNodeFault;
        e.node = p;
        inbox.TryPush(e);  // shedding is expected and fine
      }
    });
  }

  std::atomic<std::uint64_t> drained{0};
  std::thread consumer([&] {
    std::vector<ControlEvent> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      drained.fetch_add(inbox.DrainInto(batch, 64),
                        std::memory_order_relaxed);
    }
    batch.clear();
    drained.fetch_add(inbox.DrainInto(batch, 1 << 20),
                      std::memory_order_relaxed);
  });

  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(inbox.pushed() + inbox.dropped(),
            static_cast<std::uint64_t>(kProducers) * kAttemptsPer);
  EXPECT_EQ(drained.load(), inbox.pushed());
  EXPECT_EQ(inbox.size(), 0u);
}

TEST(EventInboxStressTest, DoorbellWakesParkedConsumer) {
  EventInbox inbox(64);
  std::atomic<int> received{0};
  std::thread consumer([&] {
    std::vector<ControlEvent> batch;
    while (received.load() < 100) {
      batch.clear();
      if (inbox.DrainInto(batch, 16) == 0) {
        inbox.WaitNonEmpty(/*timeout_ns=*/50'000'000);
        continue;
      }
      received.fetch_add(static_cast<int>(batch.size()));
    }
  });
  for (int i = 0; i < 100; ++i) {
    ControlEvent e;
    e.kind = ControlEventKind::kTimerTick;
    while (!inbox.TryPush(e)) std::this_thread::yield();
    if (i % 10 == 0) std::this_thread::yield();  // let the consumer park
  }
  consumer.join();
  EXPECT_EQ(received.load(), 100);
}

TEST(DoubleBufferStressTest, WriterAndReaderNeverTear) {
  // Writer publishes strictly increasing values; reader acquires whenever
  // one is available. Values observed must be monotone (latest-wins never
  // resurrects an older capture) and the final publication must be seen.
  DoubleBuffer<std::int64_t> buffer;
  constexpr std::int64_t kLast = 20'000;
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    for (std::int64_t v = 0; v <= kLast; ++v) buffer.Publish(v);
    writer_done.store(true, std::memory_order_release);
  });

  std::int64_t previous = -1;
  bool saw_last = false;
  while (!saw_last) {
    const std::int64_t* got = buffer.Acquire();
    if (got == nullptr) {
      if (writer_done.load(std::memory_order_acquire) &&
          !buffer.has_latest()) {
        break;
      }
      std::this_thread::yield();
      continue;
    }
    EXPECT_GT(*got, previous);
    previous = *got;
    saw_last = *got == kLast;
    buffer.Release();
  }
  writer.join();
  if (!saw_last) {
    // The writer finished between our last acquire and the emptiness check;
    // the final value must still be there.
    const std::int64_t* got = buffer.Acquire();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, kLast);
    buffer.Release();
  }
}

TEST(ThreadPoolStressTest, ConcurrentTrySubmitNeverLosesAcceptedTasks) {
  ThreadPool pool(2);
  constexpr int kThreads = 4;
  constexpr int kAttemptsPer = 2'000;
  std::atomic<int> accepted{0};
  std::atomic<int> executed{0};

  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kAttemptsPer; ++i) {
        if (pool.TrySubmit([&] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  while (executed.load() < accepted.load()) std::this_thread::yield();
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_GT(accepted.load(), 0);
}

// The full threaded service: producers storm the inbox while the control
// thread classifies and decides, with full solves running asynchronously on
// a separate solver pool. Asserts the accounting invariants; under TSan
// this is the main event-to-decision race detector.
TEST(ControllerServiceStressTest, ThreadedStormWithAsyncSolves) {
  ClusterSpec cluster = ClusterSpec::Uniform(
      6, NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3'000.0,
                  /*memory_mb=*/8'192.0});
  JobQueue queue;
  obs::MetricsRegistry metrics;
  ApcController::Config cfg;
  cfg.control_cycle = 600.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);

  // World mutations happen on the control thread via apply_event, so the
  // queue and cluster are never touched concurrently.
  IdenticalJobFactory factory(
      JobProfile::SingleStage(/*work=*/300'000.0, /*max_speed=*/3'000.0,
                              /*memory=*/2'048.0),
      /*relative_goal_factor=*/2.7, /*first_id=*/1'000);

  ThreadPool solver_pool(1);
  ControllerService::Config svc_cfg;
  svc_cfg.metrics = &metrics;
  svc_cfg.async_full_solve = true;
  svc_cfg.solver_pool = &solver_pool;
  svc_cfg.small_batch_events = 16;
  svc_cfg.apply_event = [&](const ControlEvent& e) {
    switch (e.kind) {
      case ControlEventKind::kJobArrival:
        queue.Submit(factory.Create(e.time));
        break;
      case ControlEventKind::kNodeFault:
        cluster.SetNodeOffline(e.node);
        break;
      case ControlEventKind::kNodeRestore:
        cluster.SetNodeOnline(e.node);
        break;
      default:
        break;
    }
  };
  ControllerService service(&controller, svc_cfg);
  service.Start();

  constexpr int kProducers = 3;
  constexpr int kEventsPer = 300;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, p] {
      for (int i = 0; i < kEventsPer; ++i) {
        ControlEvent e;
        e.time = static_cast<Seconds>(i) + p * 0.1;
        if (i % 60 == 20) {
          e.kind = ControlEventKind::kNodeFault;
          e.node = 1 + p;
        } else if (i % 60 == 40) {
          e.kind = ControlEventKind::kNodeRestore;
          e.node = 1 + p;
        } else if (i % 30 == 29) {
          e.kind = ControlEventKind::kTimerTick;
        } else {
          e.kind = ControlEventKind::kJobArrival;
        }
        while (!service.Publish(e)) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.Stop();  // drains everything and commits the in-flight solve

  const ControllerService::Counters& c = service.counters();
  EXPECT_GT(c.batches, 0u);
  EXPECT_GT(c.full_cycles, 0u);
  // Every accepted event was handled by some decision (none lost).
  EXPECT_EQ(metrics.counter("svc.events").value(), service.inbox().pushed());
  EXPECT_EQ(service.inbox().size(), 0u);
  // The latency histogram saw every decided batch's events.
  EXPECT_GT(
      metrics.histogram("svc.event_to_decision_seconds").count(), 0u);
}

// Quiescent threaded service: ticks only, stopping between each, must act
// exactly like calling RunCycleAt in a loop — same number of cycles.
TEST(ControllerServiceStressTest, ThreadedTickLoopMatchesCycleCount) {
  ClusterSpec cluster = ClusterSpec::Uniform(
      4, NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3'000.0,
                  /*memory_mb=*/8'192.0});
  JobQueue queue;
  ApcController::Config cfg;
  cfg.control_cycle = 600.0;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);
  ControllerService service(&controller, {});
  service.Start();
  for (int i = 0; i < 5; ++i) {
    ControlEvent tick;
    tick.kind = ControlEventKind::kTimerTick;
    tick.time = i * 600.0;
    while (!service.Publish(tick)) std::this_thread::yield();
    // Space the ticks out so they are not coalesced into one batch.
    while (service.inbox().size() > 0) std::this_thread::yield();
  }
  service.Stop();
  EXPECT_GE(service.counters().full_cycles, 1u);
  EXPECT_EQ(service.counters().full_cycles + service.counters().deduped, 5u);
  EXPECT_EQ(controller.cycles().size(),
            static_cast<std::size_t>(service.counters().full_cycles));
}

// A config error found only inside an async solve would hang Stop(): the
// solve runs as a TrySubmit task whose exception the pool logs and drops,
// so the service never sees it finish. The controller therefore rejects
// such a config (here Karma with karma_cap = 0) when it is built; the same
// threaded path with a valid Karma config solves, commits and stops.
TEST(ControllerServiceStressTest, BadKarmaConfigRejectedBeforeAsyncSolve) {
  ClusterSpec cluster = ClusterSpec::Uniform(
      2, NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3'000.0,
                  /*memory_mb=*/8'192.0});
  JobQueue queue;
  ApcController::Config cfg;
  cfg.control_cycle = 600.0;
  cfg.costs = VmCostModel::Free();
  cfg.optimizer.evaluator.objective.kind = FairnessObjectiveKind::kKarma;
  cfg.optimizer.evaluator.objective.karma_cap = 0.0;
  EXPECT_THROW({ ApcController rejected(&cluster, &queue, cfg); },
               std::logic_error);

  cfg.optimizer.evaluator.objective.karma_cap = 8.0;
  ApcController controller(&cluster, &queue, cfg);
  ThreadPool solver_pool(1);
  ControllerService::Config svc_cfg;
  svc_cfg.async_full_solve = true;
  svc_cfg.solver_pool = &solver_pool;
  ControllerService service(&controller, svc_cfg);
  service.Start();
  ControlEvent restore;
  restore.kind = ControlEventKind::kNodeRestore;
  restore.node = 0;
  while (!service.Publish(restore)) std::this_thread::yield();
  service.Stop();
  EXPECT_EQ(service.counters().full_cycles, 1u);
  EXPECT_EQ(controller.cycles().size(), 1u);
}

/// A tx load profile whose rate is the largest finite double: CaptureCycle
/// accepts it, and in the solve the queuing model's stability boundary λ·c
/// overflows, so the model's saturation check throws.
class OverflowingRate : public ArrivalRateProfile {
 public:
  double RateAt(Seconds) const override {
    return std::numeric_limits<double>::max();
  }
};

/// Runs one async full cycle for a controller whose solve throws, and
/// expects Stop() to rethrow the solve's check failure. The one-worker pool
/// starts with its worker held in a latch-blocked task. With `slot_taken`,
/// a second blocked task fills the pool's one-deep slot: TrySubmit refuses
/// and the service solves inline on its control thread. Without it, the
/// pool takes the solve and runs it on the worker once the latch opens.
void ExpectStopRethrowsSolveError(bool slot_taken) {
  std::latch release(1);
  std::atomic<bool> worker_held{false};
  ThreadPool pool(1);
  ASSERT_TRUE(pool.TrySubmit([&] {
    worker_held.store(true);
    release.wait();
  }));
  while (!worker_held.load()) std::this_thread::yield();
  if (slot_taken) {
    ASSERT_TRUE(pool.TrySubmit([&release] { release.wait(); }));
  }

  ClusterSpec cluster = ClusterSpec::Uniform(
      4, NodeSpec{/*num_cpus=*/4, /*cpu_speed_mhz=*/3'000.0,
                  /*memory_mb=*/8'192.0});
  JobQueue queue;
  ApcController::Config cfg;
  cfg.costs = VmCostModel::Free();
  ApcController controller(&cluster, &queue, cfg);
  TransactionalAppSpec tx;
  tx.id = 1;
  tx.name = "tx";
  tx.memory_per_instance = 1'024.0;
  tx.response_time_goal = 0.5;
  tx.demand_per_request = 250.0;
  tx.min_response_time = 0.05;
  controller.AddTransactionalApp(tx, std::make_shared<OverflowingRate>());

  obs::MetricsRegistry metrics;
  ControllerService::Config svc_cfg;
  svc_cfg.async_full_solve = true;
  svc_cfg.solver_pool = &pool;
  svc_cfg.metrics = &metrics;
  ControllerService service(&controller, svc_cfg);
  service.Start();
  ControlEvent shift;
  shift.kind = ControlEventKind::kTxLoadShift;
  shift.tx_index = 0;
  while (!service.Publish(shift)) std::this_thread::yield();
  // Let the control thread route the solve first: a shift still in the
  // inbox at Stop() would become a synchronous shutdown cycle instead.
  const obs::Counter& routed = metrics.counter(
      slot_taken ? "svc.pool_saturated_fallbacks" : "svc.async_solves");
  for (int i = 0; i < 10'000 && routed.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.count_down();
  ASSERT_EQ(routed.value(), 1u);
  try {
    service.Stop();
    ADD_FAILURE() << "Stop() returned without rethrowing the solve's error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("stability boundary"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(service.counters().full_cycles, 0u);
  EXPECT_TRUE(controller.cycles().empty());
}

// A threaded-mode solve that throws must neither hang Stop() (the pool
// drops a task's exception, so the service would wait for the solve
// forever) nor terminate the process (the inline fallback throws on the
// control thread). The service keeps the error and Stop() rethrows it.
TEST(ControllerServiceTest, ThrowingSolveSurfacesFromStop) {
  ExpectStopRethrowsSolveError(/*slot_taken=*/false);  // throws on the worker
  ExpectStopRethrowsSolveError(/*slot_taken=*/true);   // throws inline
}

}  // namespace
}  // namespace mwp
