#include "transfer.h"

namespace pimdl {
namespace transfer {

const BandwidthCurve &
curveFor(const PimPlatformConfig &platform, LinkPattern pattern)
{
    switch (pattern) {
      case LinkPattern::Broadcast:
        return platform.host_broadcast;
      case LinkPattern::Scatter:
        return platform.host_scatter;
      case LinkPattern::Gather:
        return platform.host_gather;
    }
    return platform.host_broadcast;
}

double
burstSeconds(const PimPlatformConfig &platform, LinkPattern pattern,
             double bytes)
{
    if (bytes <= 0.0)
        return 0.0;
    return platform.link_setup_latency_s +
           curveFor(platform, pattern).seconds(bytes);
}

} // namespace transfer
} // namespace pimdl
