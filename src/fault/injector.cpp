#include "fault/injector.hpp"

#include <utility>

namespace mkos::fault {

Injector::Injector(Plan plan) : plan_(std::move(plan)) {}

const std::vector<FaultEvent>& Injector::advance(sim::TimeNs to) {
  fired_ = plan_.take_until(to);
  activated_ += fired_.size();
  return fired_;
}

}  // namespace mkos::fault
