/**
 * @file
 * Scatter/gather layout transforms between host row-major tensors and
 * the per-PE tile order the DPU WRAM kernels consume.
 *
 * A host->PIM scatter delivers each PE one contiguous block, so the
 * host must pre-pack strided slices (a lane's fs_tile columns of every
 * LUT row) into lane-major staging order before the DMA; the PIM->host
 * gather is the inverse. The transfer engine's LUT staging fill runs
 * packColumnTiles.
 *
 * Both transforms are pure byte permutations: pack followed by unpack
 * is the identity (tested).
 */

#ifndef PIMDL_TRANSFER_LAYOUT_H
#define PIMDL_TRANSFER_LAYOUT_H

#include <cstddef>
#include <cstdint>

namespace pimdl {
namespace transfer {

/**
 * Packs a row-major (rows x cols) matrix of @p elem_bytes elements
 * into column-tile-major order: lane l's tile (all rows, columns
 * [l*tile_width, (l+1)*tile_width)) becomes one contiguous block —
 * the scatter order of per-lane LUT tiles and gathered output tiles.
 * @p cols must be a multiple of @p tile_width; @p dst holds
 * rows*cols*elem_bytes bytes.
 */
void packColumnTiles(const void *src, std::size_t rows, std::size_t cols,
                     std::size_t tile_width, std::size_t elem_bytes,
                     void *dst);

/** Inverse of packColumnTiles (the host-side gather unpack). */
void unpackColumnTiles(const void *src, std::size_t rows,
                       std::size_t cols, std::size_t tile_width,
                       std::size_t elem_bytes, void *dst);

} // namespace transfer
} // namespace pimdl

#endif // PIMDL_TRANSFER_LAYOUT_H
