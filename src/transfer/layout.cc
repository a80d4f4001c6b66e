#include "layout.h"

#include <cstring>

#include "common/logging.h"

namespace pimdl {
namespace transfer {

void
packColumnTiles(const void *src, std::size_t rows, std::size_t cols,
                std::size_t tile_width, std::size_t elem_bytes,
                void *dst)
{
    PIMDL_REQUIRE(tile_width > 0 && cols % tile_width == 0,
                  "tile_width must divide cols");
    const std::size_t lanes = cols / tile_width;
    const std::size_t tile_row_bytes = tile_width * elem_bytes;
    const std::size_t src_row_bytes = cols * elem_bytes;
    const auto *in = static_cast<const std::uint8_t *>(src);
    auto *out = static_cast<std::uint8_t *>(dst);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::uint8_t *col0 = in + lane * tile_row_bytes;
        std::uint8_t *tile = out + lane * rows * tile_row_bytes;
        for (std::size_t r = 0; r < rows; ++r)
            std::memcpy(tile + r * tile_row_bytes,
                        col0 + r * src_row_bytes, tile_row_bytes);
    }
}

void
unpackColumnTiles(const void *src, std::size_t rows, std::size_t cols,
                  std::size_t tile_width, std::size_t elem_bytes,
                  void *dst)
{
    PIMDL_REQUIRE(tile_width > 0 && cols % tile_width == 0,
                  "tile_width must divide cols");
    const std::size_t lanes = cols / tile_width;
    const std::size_t tile_row_bytes = tile_width * elem_bytes;
    const std::size_t dst_row_bytes = cols * elem_bytes;
    const auto *in = static_cast<const std::uint8_t *>(src);
    auto *out = static_cast<std::uint8_t *>(dst);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::uint8_t *tile = in + lane * rows * tile_row_bytes;
        std::uint8_t *col0 = out + lane * tile_row_bytes;
        for (std::size_t r = 0; r < rows; ++r)
            std::memcpy(col0 + r * dst_row_bytes,
                        tile + r * tile_row_bytes, tile_row_bytes);
    }
}

} // namespace transfer
} // namespace pimdl
