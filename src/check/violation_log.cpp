#include "check/violation_log.h"

#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::check::detail {

void publish_violation(const char* name, const std::string& lane, double t,
                       const char* prefix, const std::string& text) {
  util::metrics().counter(std::string("check.violation.") + name).add(1);
  util::metrics().counter("check.violations").add(1);
  auto& tr = util::tracer();
  if (tr.enabled()) {
    tr.instant("check", std::string("violation:") + name, tr.lane(lane), t);
  }
  NCSW_LOG_WARN << prefix << text;
}

}  // namespace ncsw::check::detail
