#include "plan/lowering.h"

#include "common/logging.h"

namespace pimdl {

namespace {

/** Builder that chains each appended node onto the previous one. */
class PlanBuilder
{
  public:
    explicit PlanBuilder(Plan &plan) : plan_(plan) {}

    PlanNode &
    append(PlanOpKind kind, PlanDevice device, std::size_t layer)
    {
        PlanNode node;
        node.id = plan_.nodes.size();
        node.kind = kind;
        node.device = device;
        node.layer = layer;
        if (!plan_.nodes.empty())
            node.deps.push_back(plan_.nodes.back().id);
        plan_.nodes.push_back(std::move(node));
        return plan_.nodes.back();
    }

  private:
    Plan &plan_;
};

} // namespace

Plan
lowerTransformer(const TransformerConfig &model, const LutNnParams &params,
                 ExecutionMode mode, const LoweringOptions &options)
{
    Plan plan;
    plan.mode = mode;
    plan.model = model;
    plan.params = params;

    const PimPlatformConfig *platform = options.platform;
    if (mode == ExecutionMode::PimDl) {
        PIMDL_REQUIRE(params.subvec_len > 0 && params.centroids > 0,
                      "PIM-DL lowering needs LUT-NN parameters");
    }

    // Host dtype of attention/elementwise nodes: the PIM modes keep the
    // host side in FP32 (the engine's historical behaviour); host-only
    // inference runs everything in the requested dtype.
    const HostDtype host_dtype =
        mode == ExecutionMode::HostOnly ? options.dtype : HostDtype::Fp32;

    // Elementwise offload choice (paper Figure 6-(b)): platforms that
    // implement elementwise ops run them at bank bandwidth.
    const bool ew_on_pim = mode != ExecutionMode::HostOnly &&
                           platform != nullptr &&
                           platform->supports_elementwise;

    const std::vector<LinearWorkload> workloads = model.linearWorkloads();
    PIMDL_REQUIRE(workloads.size() == 4,
                  "expected the four-linear encoder block split");

    PlanBuilder builder(plan);

    const double tokens = static_cast<double>(model.tokens());
    const double hidden = static_cast<double>(model.hidden_dim);
    const double ffn = static_cast<double>(model.ffn_dim);

    auto lowerLinear = [&](std::size_t layer, const LinearWorkload &w) {
        if (mode == ExecutionMode::PimDl) {
            PIMDL_REQUIRE(w.h % params.subvec_len == 0,
                          "inner dim must divide by the sub-vector length");
            LutWorkloadShape shape;
            shape.n = w.n;
            shape.cb = w.h / params.subvec_len;
            shape.ct = params.centroids;
            shape.f = w.f;
            // PEs requantize outputs to the platform's LUT dtype before
            // the host fetches them (the next layer's CCS re-quantizes
            // anyway), so the gather moves lut_dtype-wide elements.
            if (platform)
                shape.output_dtype_bytes = platform->lut_dtype_bytes;

            PlanNode &ccs =
                builder.append(PlanOpKind::Ccs, PlanDevice::Host, layer);
            ccs.role = w.role;
            ccs.has_role = true;
            ccs.n = w.n;
            ccs.h = w.h;
            ccs.f = w.f;
            ccs.lut_shape = shape;

            // Index upload (and, on non-resident platforms, the LUT tile
            // re-staging of Eq. 3). Transfer *latency* is internal to the
            // LutOp's analytical cost (Eq. 3-4); these nodes carry the
            // link-traffic accounting and the graph structure.
            PlanNode &up = builder.append(PlanOpKind::HostPimTransfer,
                                          PlanDevice::Link, layer);
            up.direction = TransferDirection::HostToPim;
            up.transfer_bytes = shape.indexBytes();
            if (platform && !platform->lut_resident) {
                // Static LUT re-staging rides the same up-transfer but
                // carries no data dependency on the forward chain; the
                // transfer engine keys resident placement off this
                // split (src/transfer).
                up.lut_stage_bytes = static_cast<double>(shape.cb) *
                                     shape.ct * shape.f *
                                     platform->lut_dtype_bytes;
                up.transfer_bytes += up.lut_stage_bytes;
            }

            PlanNode &lut =
                builder.append(PlanOpKind::LutOp, PlanDevice::Pim, layer);
            lut.role = w.role;
            lut.has_role = true;
            lut.n = w.n;
            lut.h = w.h;
            lut.f = w.f;
            lut.lut_shape = shape;

            PlanNode &down = builder.append(PlanOpKind::HostPimTransfer,
                                            PlanDevice::Link, layer);
            down.direction = TransferDirection::PimToHost;
            down.transfer_bytes = static_cast<double>(shape.n) * shape.f *
                                  shape.output_dtype_bytes;
            return;
        }

        const bool on_pim = mode == ExecutionMode::PimGemm;
        if (on_pim) {
            PlanNode &up = builder.append(PlanOpKind::HostPimTransfer,
                                          PlanDevice::Link, layer);
            up.direction = TransferDirection::HostToPim;
            up.transfer_bytes = static_cast<double>(w.n) * w.h *
                                hostDtypeBytes(options.dtype);
        }
        PlanNode &gemm = builder.append(
            PlanOpKind::Gemm, on_pim ? PlanDevice::Pim : PlanDevice::Host,
            layer);
        gemm.role = w.role;
        gemm.has_role = true;
        gemm.n = w.n;
        gemm.h = w.h;
        gemm.f = w.f;
        gemm.dtype = options.dtype;
        if (on_pim) {
            // Results come back as INT32 accumulators (4 bytes each).
            PlanNode &down = builder.append(PlanOpKind::HostPimTransfer,
                                            PlanDevice::Link, layer);
            down.direction = TransferDirection::PimToHost;
            down.transfer_bytes = static_cast<double>(w.n) * w.f * 4.0;
        }
    };

    auto lowerElementwise = [&](std::size_t layer, ElementwiseOpKind kind) {
        PlanNode &ew = builder.append(
            PlanOpKind::Elementwise,
            ew_on_pim ? PlanDevice::Pim : PlanDevice::Host, layer);
        ew.ew_kind = kind;
        ew.dtype = host_dtype;
        if (kind == ElementwiseOpKind::Gelu) {
            ew.ew_ops = tokens * ffn * 10.0;
            ew.ew_bytes = tokens * ffn * 2.0 * 4.0;
        } else {
            // One residual add plus one layernorm over the hidden dim.
            ew.ew_ops = tokens * hidden * 9.0;
            ew.ew_bytes = tokens * hidden * 3.0 * 4.0;
        }
    };

    for (std::size_t layer = 0; layer < model.layers; ++layer) {
        lowerLinear(layer, workloads[0]); // QKV projection

        PlanNode &attn =
            builder.append(PlanOpKind::Attention, PlanDevice::Host, layer);
        attn.n = model.batch;
        attn.h = model.seq_len;
        attn.f = model.hidden_dim;
        attn.dtype = host_dtype;

        lowerLinear(layer, workloads[1]); // attention output projection
        lowerElementwise(layer, ElementwiseOpKind::ResidualLn1);
        lowerLinear(layer, workloads[2]); // FFN1
        lowerElementwise(layer, ElementwiseOpKind::Gelu);
        lowerLinear(layer, workloads[3]); // FFN2
        lowerElementwise(layer, ElementwiseOpKind::ResidualLn2);
    }

    plan.validate();
    return plan;
}

void
attachTunedMappings(Plan &plan, const TuneMemo &memo)
{
    for (PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::LutOp)
            continue;
        const AutoTuneResult &tuned = memo.tune(node.lut_shape);
        PIMDL_REQUIRE(tuned.found, "auto-tuner found no legal mapping");
        node.mapping = tuned.mapping;
        node.mapping_attached = true;
    }
}

void
attachMappingOverride(Plan &plan, const LutMapping &mapping)
{
    for (PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::LutOp)
            continue;
        node.mapping = mapping;
        node.mapping_attached = true;
    }
}

} // namespace pimdl
