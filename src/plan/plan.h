/**
 * @file
 * Device-annotated operator-graph IR for transformer inference.
 *
 * The paper's execution model (Section 4.3) is an operator split: LUT
 * linears run on the PIM, CCS / attention / elementwise run on the
 * host. Before this IR existed that split was hand-rolled separately in
 * the analytical engine, the functional transformer, and the serving
 * simulator. A `Plan` encodes it once: nodes carry op kind, shape,
 * dtype, and device; edges carry dependencies. Lowering (lowering.h)
 * builds the graph, the engine attaches costs, and pluggable schedulers
 * (schedule.h) turn a costed plan into an `InferenceEstimate`.
 */

#ifndef PIMDL_PLAN_PLAN_H
#define PIMDL_PLAN_PLAN_H

#include <cstddef>
#include <string>
#include <vector>

#include "host/host_model.h"
#include "nn/model_config.h"
#include "tuner/mapping.h"

namespace pimdl {

/** LUT-NN hyper-parameters for deployment. */
struct LutNnParams
{
    std::size_t subvec_len = 4;
    std::size_t centroids = 16;
};

/** Which operator split a plan encodes. */
enum class ExecutionMode
{
    PimDl,    ///< LUT linears on PIM; CCS/attention/elementwise on host.
    PimGemm,  ///< Dense linears offloaded to the PIM as GEMM/GEMV.
    HostOnly, ///< Everything on the host processor.
};

/** Human-readable mode name. */
const char *executionModeName(ExecutionMode mode);

/** Where a plan node executes. */
enum class PlanDevice
{
    Host,
    Pim,
    /** The host<->PIM interconnect (transfer nodes). */
    Link,
};

/** Human-readable device name. */
const char *planDeviceName(PlanDevice device);

/** Operator kinds a plan node can carry. */
enum class PlanOpKind
{
    /** Closest-centroid search producing the LUT index matrix. */
    Ccs,
    /** Distributed LUT gather/accumulate of one linear layer. */
    LutOp,
    /** Dense linear layer (host GEMM or PIM GEMM/GEMV offload). */
    Gemm,
    /** Multi-head self-attention (scores, softmax, context). */
    Attention,
    /** Residual/normalization/activation elementwise work. */
    Elementwise,
    /** Host<->PIM payload movement (indices, LUT tiles, outputs). */
    HostPimTransfer,
};

/** Human-readable op-kind name. */
const char *planOpKindName(PlanOpKind kind);

/** Semantic tag of an Elementwise node (drives functional execution). */
enum class ElementwiseOpKind
{
    None,
    /** x = LayerNorm(residual + x) with the block's first LN params. */
    ResidualLn1,
    /** x = GELU(x). */
    Gelu,
    /** x = LayerNorm(residual + x) with the block's second LN params. */
    ResidualLn2,
};

/** Direction of a HostPimTransfer node. */
enum class TransferDirection
{
    HostToPim,
    PimToHost,
};

/**
 * One operator instance in a lowered plan. The struct is a tagged
 * union in spirit: which fields are meaningful depends on `kind`
 * (see the per-field comments). Costs are *not* stored here — the
 * engine costs nodes into a CostedPlan (schedule.h) so the same
 * structural plan can be re-costed under different models.
 */
struct PlanNode
{
    /** Position in Plan::nodes; also the dependency handle. */
    std::size_t id = 0;
    PlanOpKind kind = PlanOpKind::Gemm;
    PlanDevice device = PlanDevice::Host;
    /** Encoder layer this node belongs to. */
    std::size_t layer = 0;

    /** Linear-layer role (Ccs / LutOp / Gemm nodes). */
    LinearRole role = LinearRole::QkvProjection;
    bool has_role = false;

    /**
     * Generic dims. Ccs/LutOp/Gemm: (n, h, f) of the linear workload.
     * Attention: n = batch, h = seq_len, f = hidden_dim.
     */
    std::size_t n = 0;
    std::size_t h = 0;
    std::size_t f = 0;

    /** LUT workload shape (Ccs / LutOp nodes). */
    LutWorkloadShape lut_shape;

    /** Elementwise profile (Elementwise nodes): ops and bytes touched. */
    ElementwiseOpKind ew_kind = ElementwiseOpKind::None;
    double ew_ops = 0.0;
    double ew_bytes = 0.0;

    /** Transfer payload (HostPimTransfer nodes). */
    TransferDirection direction = TransferDirection::HostToPim;
    double transfer_bytes = 0.0;
    /**
     * Portion of transfer_bytes that is static LUT re-staging (set by
     * lowering on platforms without resident LUTs). Unlike the
     * activation payload it has no data dependency on the forward
     * chain, so the transfer engine's resident placement may eliminate
     * it across requests (src/transfer).
     */
    double lut_stage_bytes = 0.0;

    /** Dtype host-costed nodes run in (Gemm/Attention/Elementwise). */
    HostDtype dtype = HostDtype::Fp32;

    /** Hardware mapping (LutOp nodes; set by the attach pass). */
    bool mapping_attached = false;
    LutMapping mapping;

    /** Ids of nodes that must complete before this one starts. */
    std::vector<std::size_t> deps;
};

/** A lowered, device-annotated operator graph for one forward pass. */
struct Plan
{
    ExecutionMode mode = ExecutionMode::PimDl;
    /** Model geometry the plan was lowered from. */
    TransformerConfig model;
    /** LUT-NN deployment parameters (PimDl mode). */
    LutNnParams params;
    /** Nodes in a topological order (deps always precede users). */
    std::vector<PlanNode> nodes;

    /** Number of nodes of @p kind across the whole plan. */
    std::size_t count(PlanOpKind kind) const;

    /** True when every node's deps reference strictly earlier ids. */
    bool topologicallySorted() const;

    /**
     * Throws when the graph is malformed: ids out of order, dependency
     * edges referencing unknown or later nodes, or LutOp/Ccs nodes in a
     * non-PimDl plan.
     */
    void validate() const;
};

} // namespace pimdl

#endif // PIMDL_PLAN_PLAN_H
