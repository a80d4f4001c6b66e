/**
 * @file
 * One-call export of the whole observability state: every metric in the
 * registry plus flight-recorder occupancy, as a single JSON document.
 * This is the machine-readable artifact a bench run leaves behind
 * (--metrics-out) and the object CI asserts required keys against.
 */

#ifndef PIMDL_OBS_SNAPSHOT_H
#define PIMDL_OBS_SNAPSHOT_H

#include <string>

namespace pimdl {
namespace obs {

/** Schema identifier embedded in every snapshot. */
inline constexpr const char *kSnapshotSchema = "pimdl.metrics.v2";

/**
 * Serializes the current process observability state:
 * {"schema":"pimdl.metrics.v2","counters":{...},"gauges":{...},
 *  "histograms":{name:{count,sum,min,max,mean,p50,p95,p99}},
 *  "declared":{name:{kind,unit,gate,help}},
 *  "trace":{"recorded":N,"retained":M,"dropped":D}}.
 * "declared" is the obs/schema.h table, so the artifact names the
 * keys each check_metrics.py mode requires.
 */
std::string snapshotJson();

/** Writes snapshotJson() to @p path; throws on I/O failure. */
void writeSnapshotJson(const std::string &path);

/** Writes the flight recorder's Chrome trace JSON to @p path. */
void writeChromeTrace(const std::string &path);

/** Zeroes all metrics and clears the flight recorder. */
void resetAll();

} // namespace obs
} // namespace pimdl

#endif // PIMDL_OBS_SNAPSHOT_H
