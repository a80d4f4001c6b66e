/**
 * @file
 * Host<->PIM link pricing of the transfer engine: one payload priced as
 * one burst on the platform's saturating bandwidth curve plus a fixed
 * per-burst setup latency.
 *
 * Commodity DRAM-PIM transfer APIs are latency-dominated for small
 * payloads ("UPMEM Unleashed", PAPERS.md): each transfer call pays a
 * descriptor/rank-sync setup, and the effective bandwidth of a payload
 * follows bw(bytes) = peak * bytes / (bytes + half_size). Static LUT
 * re-staging payloads (PlanNode::lut_stage_bytes, set by lowering on
 * platforms without resident LUTs) ride the scatter curve and are the
 * payloads resident placement (resident.h) eliminates; activation
 * payloads (index uploads, output gathers) ride the broadcast and
 * gather curves.
 */

#ifndef PIMDL_TRANSFER_TRANSFER_H
#define PIMDL_TRANSFER_TRANSFER_H

#include "pim/platform.h"

namespace pimdl {
namespace transfer {

/** Which host-link bandwidth curve a payload rides. */
enum class LinkPattern
{
    /** Index tiles replicated to every PE of a group. */
    Broadcast,
    /** Distinct LUT tile per PE (UPMEM re-staging). */
    Scatter,
    /** Per-PE output collection. */
    Gather,
};

/** The bandwidth curve @p pattern rides on @p platform. */
const BandwidthCurve &curveFor(const PimPlatformConfig &platform,
                               LinkPattern pattern);

/** Seconds for one burst of @p bytes: link setup + payload at the
 * bandwidth-curve point of the whole burst (0 for an empty payload). */
double burstSeconds(const PimPlatformConfig &platform, LinkPattern pattern,
                    double bytes);

} // namespace transfer
} // namespace pimdl

#endif // PIMDL_TRANSFER_TRANSFER_H
