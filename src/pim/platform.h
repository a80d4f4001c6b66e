/**
 * @file
 * Architecture abstraction of commodity DRAM-PIM products (paper
 * Section 5.1, Figure 7): a host processor drives PIM modules whose PEs
 * have private local memory, a small on-chip buffer, and no inter-PE
 * datapath. Platform configs capture UPMEM PIM-DIMM, Samsung HBM-PIM and
 * SK-Hynix AiM (paper Tables 1 and 3).
 *
 * All numeric constants are calibration parameters taken from the papers
 * cited in DESIGN.md (UPMEM microbenchmarks of Gomez-Luna et al. [33],
 * the HBM-PIM ISSCC'21 paper, the AiM HotChips'22 paper). Where a public
 * number is unavailable the value is tuned so end-to-end ratios land in
 * the ranges PIM-DL reports, and the comment says so.
 */

#ifndef PIMDL_PIM_PLATFORM_H
#define PIMDL_PIM_PLATFORM_H

#include <cstddef>
#include <string>

namespace pimdl {

/** The three commodity DRAM-PIM product families. */
enum class PimProduct
{
    UpmemDimm,
    HbmPim,
    Aim,
};

/**
 * A saturating latency-throughput bandwidth curve:
 * bw(bytes) = peak * bytes / (bytes + half_size).
 * Small transfers are latency-dominated; large transfers approach peak.
 */
struct BandwidthCurve
{
    /** Asymptotic bandwidth in bytes/second. */
    double peak = 0.0;
    /** Transfer size (bytes) at which half of peak is reached. */
    double half_size = 1.0;

    /** Effective bandwidth for a transfer of @p bytes. */
    double at(double bytes) const
    {
        if (bytes <= 0.0)
            return peak;
        return peak * bytes / (bytes + half_size);
    }

    /** Seconds to move @p bytes. */
    double seconds(double bytes) const
    {
        if (bytes <= 0.0)
            return 0.0;
        return bytes / at(bytes);
    }
};

/** Full description of one DRAM-PIM platform. */
struct PimPlatformConfig
{
    std::string name;
    PimProduct product = PimProduct::UpmemDimm;

    /** Total processing engines across all modules. */
    std::size_t num_pes = 1024;
    /** PE clock in Hz. */
    double pe_freq_hz = 350e6;
    /** On-chip working buffer per PE (UPMEM WRAM) in bytes. */
    std::size_t pe_buffer_bytes = 64 * 1024;
    /** Local memory (bank) capacity per PE in bytes. */
    std::size_t pe_local_mem_bytes = 64ULL * 1024 * 1024;
    /** Independent memory-request slots per PE (UPMEM tasklets). */
    std::size_t pe_parallel_slots = 16;

    /** Host->PIM, same payload replicated to groups of PEs. */
    BandwidthCurve host_broadcast;
    /** Host->PIM, distinct payload per PE. */
    BandwidthCurve host_scatter;
    /** PIM->host result collection. */
    BandwidthCurve host_gather;
    /** Per-PE local-memory streaming (UPMEM MRAM->WRAM DMA). */
    BandwidthCurve pe_stream;

    /** Per-PE arithmetic throughput, ops/second. */
    double pe_add_ops_per_s = 350e6;
    double pe_mul_ops_per_s = 30e6;
    /** Per-PE LUT lookup issue rate (address gen + load), ops/second. */
    double pe_lookup_ops_per_s = 120e6;

    /** Datatype width of LUT entries on this platform (bytes). */
    double lut_dtype_bytes = 1.0;

    /**
     * True when LUTs stay resident in the PIM banks across inferences
     * (HBM-PIM/AiM: PIM instructions carry only the indices), false when
     * the offload model re-stages LUT tiles per kernel execution
     * (UPMEM's kernel-offload flow, paper Eq. 3).
     */
    bool lut_resident = false;

    /**
     * True when the PIM units implement elementwise operators (ReLU,
     * residual add, normalization) so the engine can offload them
     * (paper Figure 6-(b): "their offloading choices depend on the
     * functionality supported by target PIM modules"). HBM-PIM and AiM
     * ship such ops; UPMEM could, but the paper keeps them on the host.
     */
    bool supports_elementwise = false;

    /** Per-kernel-launch fixed overhead, seconds. */
    double kernel_launch_overhead_s = 40e-6;

    /**
     * Fixed per-burst setup cost of one host<->PIM transfer, seconds:
     * descriptor build, rank synchronization, and DMA arm. The transfer
     * engine (src/transfer) charges this once per payload burst.
     */
    double link_setup_latency_s = 2e-6;

    /** Static power of the whole PIM subsystem, watts. */
    double pim_static_power_w = 110.0;
    /** Busy power of the attached host processor, watts. */
    double host_power_w = 170.0;
    /** Energy per byte moved over the host<->PIM link, joules/byte. */
    double transfer_energy_per_byte = 15e-12;

    /** Aggregate PE arithmetic throughput (adds), ops/second. */
    double totalAddThroughput() const
    {
        return pe_add_ops_per_s * static_cast<double>(num_pes);
    }

    /** Aggregate local-memory streaming bandwidth, bytes/second. */
    double totalStreamBandwidth() const
    {
        return pe_stream.peak * static_cast<double>(num_pes);
    }
};

/**
 * UPMEM PIM-DIMM platform: 8 DIMMs, 1024 DPUs @ 350 MHz, 64 KB WRAM,
 * dual-socket Xeon 4210 host (paper Table 3, "DDR4-PIM Platform").
 */
PimPlatformConfig upmemPlatform();

/**
 * Hypothetical adder-only variant of the UPMEM platform (paper
 * Section 7, "Adder-only PIM Design"): LUT-NN removes all PIM-side
 * multiplications, so the multiplier area can be re-spent on adders.
 * Adders cost roughly a quarter of a multiplier's area, so the same
 * budget buys ~4x the accumulate throughput per PE.
 */
PimPlatformConfig upmemAdderOnlyPlatform();

/** Samsung HBM-PIM: 4 cubes, 512 PEs, FP16 MACs, A2 GPU host. */
PimPlatformConfig hbmPimPlatform();

/** SK-Hynix AiM: 16 GDDR6 chips, 512 PEs, BF16 MACs, A2 GPU host. */
PimPlatformConfig aimPlatform();

/** Returns the platform for a product enum. */
PimPlatformConfig platformFor(PimProduct product);

} // namespace pimdl

#endif // PIMDL_PIM_PLATFORM_H
