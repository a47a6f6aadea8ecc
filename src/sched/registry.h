// The scheduler catalogue: every named scheduler at its paper-default
// setting (DESIGN.md §14), and the one place that turns a name into a
// configured scheduler. Sweeps away from a default construct directly.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "coflow/spec.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace aalo::sched {

/// Builds one scheduler for `workload`; FIFO-LM's heavy threshold and the
/// offline order are derived from it. `delta` is the coordination
/// interval Δ of the "aalo" entry; every other entry ignores it.
using SchedulerFactory = std::unique_ptr<sim::Scheduler> (*)(
    const coflow::Workload& workload, util::Seconds delta);

struct RegisteredScheduler {
  std::string_view name;
  SchedulerFactory make;
};

/// Every registered scheduler, in catalogue order.
std::span<const RegisteredScheduler> registeredSchedulers();

/// The entry named `name`, or null if there is none.
const RegisteredScheduler* findScheduler(std::string_view name);

/// The scheduler named `name` built for `workload`, or null for an
/// unknown name.
std::unique_ptr<sim::Scheduler> makeScheduler(std::string_view name,
                                              const coflow::Workload& workload,
                                              util::Seconds delta = 0);

}  // namespace aalo::sched
