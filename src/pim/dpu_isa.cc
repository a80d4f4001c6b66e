#include "dpu_isa.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pimdl {

namespace {

/** Aggregates interpreter activity into the process metrics registry. */
void
publishDpuRunStats(const DpuRunStats &stats)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &runs = reg.counter(metrics::kDpuKernelRuns);
    static obs::Counter &instructions =
        reg.counter(metrics::kDpuInstructions);
    static obs::Counter &cycles = reg.counter(metrics::kDpuCycles);
    static obs::Counter &dma_bytes = reg.counter(metrics::kDpuDmaBytes);
    runs.add();
    instructions.add(stats.instructions);
    cycles.add(stats.cycles);
    dma_bytes.add(stats.dma_bytes);
}

} // namespace

DpuPe::DpuPe(std::size_t wram_bytes, std::size_t mram_bytes)
    : wram_(wram_bytes, 0), mram_(mram_bytes, 0)
{}

std::int32_t
DpuPe::wramWord(std::size_t addr) const
{
    PIMDL_REQUIRE(addr + 4 <= wram_.size(), "WRAM word read out of range");
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | wram_[addr + static_cast<std::size_t>(i)];
    return static_cast<std::int32_t>(v);
}

void
DpuPe::setWramWord(std::size_t addr, std::int32_t value)
{
    PIMDL_REQUIRE(addr + 4 <= wram_.size(), "WRAM word write out of range");
    std::uint32_t v = static_cast<std::uint32_t>(value);
    for (int i = 0; i < 4; ++i) {
        wram_[addr + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v & 0xff);
        v >>= 8;
    }
}

void
DpuPe::setReg(std::size_t r, std::int32_t value)
{
    PIMDL_REQUIRE(r < regs_.size(), "register index out of range");
    regs_[r] = value;
}

std::int32_t
DpuPe::reg(std::size_t r) const
{
    PIMDL_REQUIRE(r < regs_.size(), "register index out of range");
    return regs_[r];
}

DpuRunStats
DpuPe::run(const std::vector<DpuInstr> &program, std::uint64_t max_steps)
{
    DpuRunStats stats;
    std::size_t pc = 0;

    auto check_wram = [&](std::int64_t addr, std::size_t width) {
        PIMDL_REQUIRE(addr >= 0 &&
                          static_cast<std::size_t>(addr) + width <=
                              wram_.size(),
                      "WRAM access out of range");
    };

    while (pc < program.size() && stats.instructions < max_steps) {
        const DpuInstr &in = program[pc];
        ++stats.instructions;
        ++stats.cycles;
        ++pc;

        switch (in.op) {
          case DpuOp::Movi:
            regs_[in.rd] = in.imm;
            break;
          case DpuOp::Mov:
            regs_[in.rd] = regs_[in.ra];
            break;
          case DpuOp::Add:
            regs_[in.rd] = regs_[in.ra] + regs_[in.rb];
            break;
          case DpuOp::Addi:
            regs_[in.rd] = regs_[in.ra] + in.imm;
            break;
          case DpuOp::Sub:
            regs_[in.rd] = regs_[in.ra] - regs_[in.rb];
            break;
          case DpuOp::Mul:
            regs_[in.rd] = regs_[in.ra] * regs_[in.rb];
            stats.cycles += kMulCycles - 1;
            break;
          case DpuOp::Shl:
            regs_[in.rd] = regs_[in.ra] << (in.imm & 31);
            break;
          case DpuOp::Ldb: {
            const std::int64_t addr =
                static_cast<std::int64_t>(regs_[in.ra]) + in.imm;
            check_wram(addr, 1);
            regs_[in.rd] = static_cast<std::int8_t>(
                wram_[static_cast<std::size_t>(addr)]);
            break;
          }
          case DpuOp::Ldh: {
            const std::int64_t addr =
                static_cast<std::int64_t>(regs_[in.ra]) + in.imm;
            check_wram(addr, 2);
            const std::uint16_t lo =
                wram_[static_cast<std::size_t>(addr)];
            const std::uint16_t hi =
                wram_[static_cast<std::size_t>(addr) + 1];
            regs_[in.rd] = static_cast<std::int16_t>(
                static_cast<std::uint16_t>(lo | (hi << 8)));
            break;
          }
          case DpuOp::Ldw: {
            const std::int64_t addr =
                static_cast<std::int64_t>(regs_[in.ra]) + in.imm;
            check_wram(addr, 4);
            regs_[in.rd] = wramWord(static_cast<std::size_t>(addr));
            break;
          }
          case DpuOp::Stw: {
            const std::int64_t addr =
                static_cast<std::int64_t>(regs_[in.ra]) + in.imm;
            check_wram(addr, 4);
            setWramWord(static_cast<std::size_t>(addr), regs_[in.rb]);
            break;
          }
          case DpuOp::Blt:
            if (regs_[in.ra] < regs_[in.rb])
                pc = static_cast<std::size_t>(in.imm);
            break;
          case DpuOp::Bne:
            if (regs_[in.ra] != regs_[in.rb])
                pc = static_cast<std::size_t>(in.imm);
            break;
          case DpuOp::Jmp:
            pc = static_cast<std::size_t>(in.imm);
            break;
          case DpuOp::Dma: {
            const std::int64_t src = regs_[in.ra];
            const std::int64_t dst = regs_[in.rd];
            const std::int64_t bytes = regs_[in.rb];
            PIMDL_REQUIRE(bytes >= 0 && src >= 0 &&
                              static_cast<std::size_t>(src + bytes) <=
                                  mram_.size(),
                          "DMA MRAM range invalid");
            check_wram(dst, static_cast<std::size_t>(bytes));
            std::copy_n(mram_.begin() + src, bytes, wram_.begin() + dst);
            ++stats.dma_transfers;
            stats.dma_bytes += static_cast<std::uint64_t>(bytes);
            break;
          }
          case DpuOp::Halt:
            stats.halted = true;
            publishDpuRunStats(stats);
            return stats;
        }
    }
    publishDpuRunStats(stats);
    return stats;
}

DpuProgramBuilder &
DpuProgramBuilder::emit(DpuInstr instr)
{
    program_.push_back(instr);
    return *this;
}

DpuProgramBuilder &
DpuProgramBuilder::movi(int rd, std::int32_t imm)
{
    return emit({DpuOp::Movi, static_cast<std::uint8_t>(rd), 0, 0, imm});
}

DpuProgramBuilder &
DpuProgramBuilder::mov(int rd, int ra)
{
    return emit({DpuOp::Mov, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra), 0, 0});
}

DpuProgramBuilder &
DpuProgramBuilder::add(int rd, int ra, int rb)
{
    return emit({DpuOp::Add, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra),
                 static_cast<std::uint8_t>(rb), 0});
}

DpuProgramBuilder &
DpuProgramBuilder::addi(int rd, int ra, std::int32_t imm)
{
    return emit({DpuOp::Addi, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra), 0, imm});
}

DpuProgramBuilder &
DpuProgramBuilder::sub(int rd, int ra, int rb)
{
    return emit({DpuOp::Sub, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra),
                 static_cast<std::uint8_t>(rb), 0});
}

DpuProgramBuilder &
DpuProgramBuilder::mul(int rd, int ra, int rb)
{
    return emit({DpuOp::Mul, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra),
                 static_cast<std::uint8_t>(rb), 0});
}

DpuProgramBuilder &
DpuProgramBuilder::shl(int rd, int ra, std::int32_t imm)
{
    return emit({DpuOp::Shl, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra), 0, imm});
}

DpuProgramBuilder &
DpuProgramBuilder::ldb(int rd, int ra, std::int32_t imm)
{
    return emit({DpuOp::Ldb, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra), 0, imm});
}

DpuProgramBuilder &
DpuProgramBuilder::ldh(int rd, int ra, std::int32_t imm)
{
    return emit({DpuOp::Ldh, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra), 0, imm});
}

DpuProgramBuilder &
DpuProgramBuilder::ldw(int rd, int ra, std::int32_t imm)
{
    return emit({DpuOp::Ldw, static_cast<std::uint8_t>(rd),
                 static_cast<std::uint8_t>(ra), 0, imm});
}

DpuProgramBuilder &
DpuProgramBuilder::stw(int rb, int ra, std::int32_t imm)
{
    return emit({DpuOp::Stw, 0, static_cast<std::uint8_t>(ra),
                 static_cast<std::uint8_t>(rb), imm});
}

DpuProgramBuilder &
DpuProgramBuilder::blt(int ra, int rb, const std::string &label)
{
    fixups_.push_back({program_.size(), label});
    return emit({DpuOp::Blt, 0, static_cast<std::uint8_t>(ra),
                 static_cast<std::uint8_t>(rb), -1});
}

DpuProgramBuilder &
DpuProgramBuilder::bne(int ra, int rb, const std::string &label)
{
    fixups_.push_back({program_.size(), label});
    return emit({DpuOp::Bne, 0, static_cast<std::uint8_t>(ra),
                 static_cast<std::uint8_t>(rb), -1});
}

DpuProgramBuilder &
DpuProgramBuilder::jmp(const std::string &label)
{
    fixups_.push_back({program_.size(), label});
    return emit({DpuOp::Jmp, 0, 0, 0, -1});
}

DpuProgramBuilder &
DpuProgramBuilder::dma(int rd_wram, int ra_mram, int rb_bytes)
{
    return emit({DpuOp::Dma, static_cast<std::uint8_t>(rd_wram),
                 static_cast<std::uint8_t>(ra_mram),
                 static_cast<std::uint8_t>(rb_bytes), 0});
}

DpuProgramBuilder &
DpuProgramBuilder::halt()
{
    return emit({DpuOp::Halt, 0, 0, 0, 0});
}

DpuProgramBuilder &
DpuProgramBuilder::label(const std::string &name)
{
    labels_.emplace_back(name, program_.size());
    return *this;
}

std::vector<DpuInstr>
DpuProgramBuilder::build()
{
    for (const Fixup &fixup : fixups_) {
        bool found = false;
        for (const auto &[name, pos] : labels_) {
            if (name == fixup.label) {
                program_[fixup.instr].imm = static_cast<std::int32_t>(pos);
                found = true;
                break;
            }
        }
        PIMDL_REQUIRE(found, "unresolved label: " + fixup.label);
    }
    fixups_.clear();
    return program_;
}

} // namespace pimdl
