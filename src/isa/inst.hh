/**
 * @file
 * The mini RISC ISA used by the simulator: a 64-bit, RV64I-flavoured
 * integer instruction set. Instructions are fixed 4 bytes for PC
 * arithmetic; operands are held symbolically (no binary encoding is
 * needed by the simulator, which is execution-driven).
 */

#ifndef MSSR_ISA_INST_HH
#define MSSR_ISA_INST_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace mssr::isa
{

/** Opcodes of the mini ISA. */
enum class Op : std::uint8_t
{
    // ALU register-register.
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
    MUL, MULH, DIV, REM,
    // ALU register-immediate.
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI, SLTIU,
    // Wide immediate (pseudo: full 64-bit immediate materialisation).
    LI,
    // Loads (signed unless U-suffixed).
    LB, LBU, LH, LHU, LW, LWU, LD,
    // Stores.
    SB, SH, SW, SD,
    // Conditional branches.
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    // Unconditional control flow.
    JAL, JALR,
    // Misc.
    NOP, HALT,
    NumOps
};

/** Functional-unit class an instruction issues to. */
enum class FuClass : std::uint8_t
{
    Alu,    //!< simple integer ops (1 cycle)
    Mul,    //!< multiply (3 cycles, issues on ALU ports)
    Div,    //!< divide (12 cycles, issues on ALU ports)
    Branch, //!< conditional branches and jumps (BRU)
    Load,   //!< loads (LSU)
    Store,  //!< stores (LSU)
    None    //!< NOP/HALT
};

/** Static per-opcode attributes (one row of the opcode table). */
struct OpAttrs
{
    /** Attribute flag bits. */
    enum : std::uint8_t
    {
        ReadsRs1 = 1 << 0,   //!< architecturally reads rs1
        ReadsRs2 = 1 << 1,   //!< architecturally reads rs2
        WritesRd = 1 << 2,   //!< writes rd (when rd != x0)
        CondBranch = 1 << 3, //!< conditional branch
        SignedMem = 1 << 4,  //!< sign-extending load
    };

    Op op;                  //!< the row's opcode (checked against the index)
    FuClass fu;
    std::uint8_t flags;
    std::uint8_t memBytes;  //!< access size for loads/stores, else 0
};

namespace detail
{

// Flag sets shared by many rows: register-register ALU, register-
// immediate ALU (also unsigned loads and JALR), signed load, store,
// conditional branch.
using A = OpAttrs;
constexpr std::uint8_t RR = A::ReadsRs1 | A::ReadsRs2 | A::WritesRd;
constexpr std::uint8_t RI = A::ReadsRs1 | A::WritesRd;
constexpr std::uint8_t LdS = A::ReadsRs1 | A::WritesRd | A::SignedMem;
constexpr std::uint8_t St = A::ReadsRs1 | A::ReadsRs2;
constexpr std::uint8_t Br = A::ReadsRs1 | A::ReadsRs2 | A::CondBranch;

/** Attribute table indexed by Op; rows in enum order. */
inline constexpr OpAttrs opTable[] = {
    {Op::ADD, FuClass::Alu, RR, 0},   {Op::SUB, FuClass::Alu, RR, 0},
    {Op::AND, FuClass::Alu, RR, 0},   {Op::OR, FuClass::Alu, RR, 0},
    {Op::XOR, FuClass::Alu, RR, 0},   {Op::SLL, FuClass::Alu, RR, 0},
    {Op::SRL, FuClass::Alu, RR, 0},   {Op::SRA, FuClass::Alu, RR, 0},
    {Op::SLT, FuClass::Alu, RR, 0},   {Op::SLTU, FuClass::Alu, RR, 0},
    {Op::MUL, FuClass::Mul, RR, 0},   {Op::MULH, FuClass::Mul, RR, 0},
    {Op::DIV, FuClass::Div, RR, 0},   {Op::REM, FuClass::Div, RR, 0},
    {Op::ADDI, FuClass::Alu, RI, 0},  {Op::ANDI, FuClass::Alu, RI, 0},
    {Op::ORI, FuClass::Alu, RI, 0},   {Op::XORI, FuClass::Alu, RI, 0},
    {Op::SLLI, FuClass::Alu, RI, 0},  {Op::SRLI, FuClass::Alu, RI, 0},
    {Op::SRAI, FuClass::Alu, RI, 0},  {Op::SLTI, FuClass::Alu, RI, 0},
    {Op::SLTIU, FuClass::Alu, RI, 0},
    {Op::LI, FuClass::Alu, A::WritesRd, 0},
    {Op::LB, FuClass::Load, LdS, 1},  {Op::LBU, FuClass::Load, RI, 1},
    {Op::LH, FuClass::Load, LdS, 2},  {Op::LHU, FuClass::Load, RI, 2},
    {Op::LW, FuClass::Load, LdS, 4},  {Op::LWU, FuClass::Load, RI, 4},
    {Op::LD, FuClass::Load, RI, 8},
    {Op::SB, FuClass::Store, St, 1},  {Op::SH, FuClass::Store, St, 2},
    {Op::SW, FuClass::Store, St, 4},  {Op::SD, FuClass::Store, St, 8},
    {Op::BEQ, FuClass::Branch, Br, 0},  {Op::BNE, FuClass::Branch, Br, 0},
    {Op::BLT, FuClass::Branch, Br, 0},  {Op::BGE, FuClass::Branch, Br, 0},
    {Op::BLTU, FuClass::Branch, Br, 0}, {Op::BGEU, FuClass::Branch, Br, 0},
    {Op::JAL, FuClass::Branch, A::WritesRd, 0},
    {Op::JALR, FuClass::Branch, RI, 0},
    {Op::NOP, FuClass::None, 0, 0},   {Op::HALT, FuClass::None, 0, 0},
};

constexpr bool
opTableInEnumOrder()
{
    constexpr auto n = static_cast<std::size_t>(Op::NumOps);
    if (sizeof(opTable) / sizeof(opTable[0]) != n)
        return false;
    for (std::size_t i = 0; i < n; ++i)
        if (opTable[i].op != static_cast<Op>(i))
            return false;
    return true;
}
static_assert(opTableInEnumOrder(), "opTable out of sync with Op enum");

} // namespace detail

/** The attribute row of @p op. */
constexpr const OpAttrs &
opAttrs(Op op)
{
    return detail::opTable[static_cast<std::size_t>(op)];
}

/**
 * A static (decoded) instruction. The assembler produces a vector of
 * these; dynamic instructions reference them by index. Every predicate
 * below is one read of the opcode's attribute row.
 */
struct Inst
{
    Op op = Op::NOP;
    ArchReg rd = 0;        //!< destination register (0 = x0 = no effect)
    ArchReg rs1 = 0;
    ArchReg rs2 = 0;
    std::int64_t imm = 0;  //!< immediate / branch byte offset

    FuClass fuClass() const { return opAttrs(op).fu; }

    bool isLoad() const { return fuClass() == FuClass::Load; }
    bool isStore() const { return fuClass() == FuClass::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool
    isCondBranch() const
    {
        return opAttrs(op).flags & OpAttrs::CondBranch;
    }
    bool isJump() const { return op == Op::JAL || op == Op::JALR; }
    bool isControl() const { return fuClass() == FuClass::Branch; }
    bool isHalt() const { return op == Op::HALT; }

    /** True when the instruction architecturally reads rs1. */
    bool hasRs1() const { return opAttrs(op).flags & OpAttrs::ReadsRs1; }
    /** True when the instruction architecturally reads rs2. */
    bool hasRs2() const { return opAttrs(op).flags & OpAttrs::ReadsRs2; }
    /** True when the instruction architecturally writes rd (rd != x0). */
    bool
    hasRd() const
    {
        return rd != 0 && (opAttrs(op).flags & OpAttrs::WritesRd);
    }

    /** Memory access size in bytes (loads/stores only). */
    unsigned memBytes() const { return opAttrs(op).memBytes; }
    /** True for sign-extending loads. */
    bool memSigned() const { return opAttrs(op).flags & OpAttrs::SignedMem; }

    /** Execution latency in cycles, given the core's latency config. */
    unsigned
    latency(unsigned alu, unsigned mul, unsigned div, unsigned branch) const
    {
        switch (fuClass()) {
          case FuClass::Mul:
            return mul;
          case FuClass::Div:
            return div;
          case FuClass::Branch:
            return branch;
          default:
            return alu;
        }
    }

    bool operator==(const Inst &other) const = default;
};

/** Mnemonic for an opcode ("add", "beq", ...). */
const char *opName(Op op);

/** ABI register name ("zero", "ra", "sp", "t0", ...). */
const char *regName(ArchReg r);

/** Disassembles @p inst at address @p pc into assembler-like text. */
std::string disasm(const Inst &inst, Addr pc);

/**
 * Evaluates a non-memory, non-control instruction's result value.
 * @param a value of rs1, @param b value of rs2.
 */
RegVal evalAlu(const Inst &inst, RegVal a, RegVal b);

/** Evaluates a conditional branch's direction. */
bool evalCondBranch(const Inst &inst, RegVal a, RegVal b);

/** Computes a memory instruction's effective address. */
Addr evalMemAddr(const Inst &inst, RegVal base);

/**
 * Computes the target of a taken control instruction at @p pc.
 * For JALR the base register value @p a is used.
 */
Addr evalTarget(const Inst &inst, Addr pc, RegVal a);

} // namespace mssr::isa

#endif // MSSR_ISA_INST_HH
