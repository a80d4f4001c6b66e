#include "platform.h"

#include "common/logging.h"

namespace pimdl {

PimPlatformConfig
upmemPlatform()
{
    PimPlatformConfig cfg;
    cfg.name = "UPMEM-DDR4-PIM";
    cfg.product = PimProduct::UpmemDimm;

    // 8 DIMMs x 2 ranks x 64 DPUs (paper Table 3).
    cfg.num_pes = 1024;
    cfg.pe_freq_hz = 350e6;
    cfg.pe_buffer_bytes = 64 * 1024;      // WRAM
    cfg.pe_local_mem_bytes = 64ULL << 20; // MRAM per DPU
    cfg.pe_parallel_slots = 16;           // hardware tasklets

    // Host<->PIM bandwidth: broadcast is the fastest pattern because the
    // payload stays in the host cache (Gomez-Luna et al. [33]); gathering
    // results back is the slowest. half_size is the per-PE block size at
    // which half of peak is reached — rank-parallel transfers saturate
    // around tens of KB per DPU, and small blocks are latency-dominated,
    // which is what starves small batches (Fig. 12-(c) behaviour).
    // Peaks follow the UPMEM microbenchmark study [33]: parallel
    // broadcast ~22 GB/s across 16 ranks, scatter (distinct payload per
    // DPU) ~6.4 GB/s, DPU->CPU gather ~4.7 GB/s.
    cfg.host_broadcast = {22e9, 8.0 * 1024};
    cfg.host_scatter = {6.4e9, 8.0 * 1024};
    cfg.host_gather = {4.7e9, 16.0 * 1024};

    // MRAM->WRAM DMA per DPU: ~630 MB/s peak for large blocks, heavily
    // latency-bound below ~1 KB ([33], Fig. 6 there).
    cfg.pe_stream = {630e6, 1024.0};

    // DPU pipeline retires ~1 instruction/cycle when >= 11 tasklets are
    // resident. One INT8 LUT accumulate costs ~4 instructions (WRAM
    // load, sign-extend+add, address update, loop) -> 87.5 M adds/s per
    // DPU, which reproduces the paper's absolute PIM-DL latencies. A
    // GEMM multiply-accumulate goes through the microcoded mul_step
    // sequence plus streamed-operand fetch (~50 cycles), which is what
    // makes GEMM offload catastrophically slow on this product
    // (Figure 10's per-layer PIM latency line).
    cfg.pe_add_ops_per_s = 350e6 / 4.0;
    cfg.pe_mul_ops_per_s = 350e6 / 50.0;
    cfg.pe_lookup_ops_per_s = 350e6 / 3.0;

    cfg.lut_dtype_bytes = 1.0; // INT8 LUTs on UPMEM (paper Section 6.3).
    // dpu_load + dpu_launch + sync across 16 ranks costs tens of ms per
    // offloaded kernel; this fixed cost is what sinks small batches
    // (Figure 12-(c)).
    cfg.kernel_launch_overhead_s = 50e-3;
    // dpu_push_xfer descriptor build + rank barrier per transfer call:
    // ~30 us measured on the 16-rank configuration ([33] reports the
    // per-call software overhead dominating sub-KB transfers). Paid
    // once per payload burst by the transfer engine.
    cfg.link_setup_latency_s = 30e-6;

    // dpu-diag reports ~13.92 W/DIMM at 350 MHz (paper Section 6.3).
    cfg.pim_static_power_w = 13.92 * 8.0;
    cfg.host_power_w = 2.0 * 85.0; // dual Xeon 4210 TDP
    cfg.transfer_energy_per_byte = 15e-12;
    return cfg;
}

PimPlatformConfig
upmemAdderOnlyPlatform()
{
    PimPlatformConfig cfg = upmemPlatform();
    cfg.name = "UPMEM-AdderOnly";
    // Re-spend the multiplier/mul_step microcode area on parallel adder
    // lanes: ~4x accumulate throughput; lookups issue alongside.
    cfg.pe_add_ops_per_s *= 4.0;
    cfg.pe_lookup_ops_per_s *= 2.0;
    // GEMM becomes impossible without multipliers; leave a token rate so
    // baseline estimates stay finite but clearly unusable.
    cfg.pe_mul_ops_per_s = 1e3;
    return cfg;
}

PimPlatformConfig
hbmPimPlatform()
{
    PimPlatformConfig cfg;
    cfg.name = "HBM-PIM";
    cfg.product = PimProduct::HbmPim;

    // 4 cubes x 128 bank-level PEs (paper Table 3).
    cfg.num_pes = 512;
    cfg.pe_freq_hz = 1.2e9;
    // Bank-attached PEs stream operands straight out of the open row;
    // the effective staging window is the row buffer, not a tiny SRF.
    cfg.pe_buffer_bytes = 32 * 1024;
    cfg.pe_local_mem_bytes = 16ULL << 20;
    cfg.pe_parallel_slots = 1;

    // The GPU host drives HBM-PIM through its own memory interface:
    // command streams are cheap and transfers are latency-cheap even
    // for small tiles.
    cfg.host_broadcast = {256e9, 1024.0};
    cfg.host_scatter = {128e9, 1024.0};
    cfg.host_gather = {128e9, 1024.0};

    // Bank-level parallel streaming: 2 TB/s per cube x 4 cubes / 512
    // PEs; row-buffer hits make even small bursts efficient.
    cfg.pe_stream = {8e12 / 512.0, 64.0};

    // 1.2 TFLOPS/cube x 4 = 4.8 TFLOPS aggregate FP16 MAC throughput
    // (paper Section 6.7); one MAC = 2 ops, so 2.4 G MAC/s aggregate.
    // Indexed LUT accumulation cannot keep every SIMD MAC lane fed the
    // way streaming GEMV does (~1/3 gather efficiency).
    cfg.pe_add_ops_per_s = 4.8e12 / 512.0 / 6.0;
    cfg.pe_mul_ops_per_s = 4.8e12 / 512.0 / 2.0;
    cfg.pe_lookup_ops_per_s = 4.8e12 / 512.0 / 4.0;

    cfg.lut_dtype_bytes = 2.0; // FP16 LUT entries.
    cfg.lut_resident = true;   // LUTs live in the banks like weights.
    cfg.supports_elementwise = true; // bank-level ReLU/add/norm units.
    cfg.kernel_launch_overhead_s = 5e-6;
    // PIM commands ride the GPU memory interface; burst setup is one
    // command-queue doorbell, not a rank barrier.
    cfg.link_setup_latency_s = 1e-6;

    cfg.pim_static_power_w = 60.0;
    cfg.host_power_w = 60.0; // NVIDIA A2 board power
    cfg.transfer_energy_per_byte = 7e-12;
    return cfg;
}

PimPlatformConfig
aimPlatform()
{
    PimPlatformConfig cfg;
    cfg.name = "AiM";
    cfg.product = PimProduct::Aim;

    // 16 GDDR6 chips x 32 bank PEs (paper Table 3).
    cfg.num_pes = 512;
    cfg.pe_freq_hz = 1.0e9;
    cfg.pe_buffer_bytes = 32 * 1024;
    cfg.pe_local_mem_bytes = 32ULL << 20;
    cfg.pe_parallel_slots = 1;

    cfg.host_broadcast = {256e9, 1024.0};
    cfg.host_scatter = {128e9, 1024.0};
    cfg.host_gather = {128e9, 1024.0};

    // 1 TB/s per chip x 16 chips / 512 PEs.
    cfg.pe_stream = {16e12 / 512.0, 64.0};

    // ~1 TFLOPS per chip x 16 = 16 TFLOPS aggregate (paper Section
    // 6.7); 8 G MAC/s aggregate, ~1/3 gather efficiency for indexed
    // LUT accumulation.
    cfg.pe_add_ops_per_s = 16e12 / 512.0 / 6.0;
    cfg.pe_mul_ops_per_s = 16e12 / 512.0 / 2.0;
    cfg.pe_lookup_ops_per_s = 16e12 / 512.0 / 4.0;

    cfg.lut_dtype_bytes = 2.0; // BF16 LUT entries.
    cfg.lut_resident = true;   // LUTs live in the banks like weights.
    cfg.supports_elementwise = true; // GEMV engine doubles for eltwise.
    cfg.kernel_launch_overhead_s = 5e-6;
    // GDDR6 command-bus doorbell per burst; slightly above HBM-PIM
    // because the 16 chips arm independently.
    cfg.link_setup_latency_s = 2e-6;

    cfg.pim_static_power_w = 80.0;
    cfg.host_power_w = 60.0;
    cfg.transfer_energy_per_byte = 7e-12;
    return cfg;
}

PimPlatformConfig
platformFor(PimProduct product)
{
    switch (product) {
      case PimProduct::UpmemDimm:
        return upmemPlatform();
      case PimProduct::HbmPim:
        return hbmPimPlatform();
      case PimProduct::Aim:
        return aimPlatform();
    }
    panicError("unknown PIM product");
}

} // namespace pimdl
