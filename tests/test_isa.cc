#include <gtest/gtest.h>

#include "isa/inst.hh"

using namespace mssr;
using namespace mssr::isa;

namespace
{

Inst
make(Op op, ArchReg rd = 0, ArchReg rs1 = 0, ArchReg rs2 = 0,
     std::int64_t imm = 0)
{
    return Inst{op, rd, rs1, rs2, imm};
}

} // namespace

TEST(Isa, Classification)
{
    EXPECT_TRUE(make(Op::LD).isLoad());
    EXPECT_TRUE(make(Op::SB).isStore());
    EXPECT_TRUE(make(Op::BEQ).isCondBranch());
    EXPECT_TRUE(make(Op::JAL).isJump());
    EXPECT_TRUE(make(Op::JALR).isControl());
    EXPECT_FALSE(make(Op::ADD).isControl());
    EXPECT_TRUE(make(Op::HALT).isHalt());
}

TEST(Isa, SourceAndDestPresence)
{
    EXPECT_TRUE(make(Op::ADD, 1, 2, 3).hasRs1());
    EXPECT_TRUE(make(Op::ADD, 1, 2, 3).hasRs2());
    EXPECT_FALSE(make(Op::ADDI, 1, 2).hasRs2());
    EXPECT_FALSE(make(Op::LI, 1).hasRs1());
    EXPECT_FALSE(make(Op::JAL, 1).hasRs1());
    EXPECT_TRUE(make(Op::JALR, 1, 2).hasRs1());
    // x0 destination writes are architecturally void.
    EXPECT_FALSE(make(Op::ADD, 0, 1, 2).hasRd());
    EXPECT_TRUE(make(Op::ADD, 5, 1, 2).hasRd());
    // Stores and branches have no destination.
    EXPECT_FALSE(make(Op::SD, 0, 1, 2).hasRd());
    EXPECT_FALSE(make(Op::BEQ, 0, 1, 2).hasRd());
}

TEST(Isa, MemBytes)
{
    EXPECT_EQ(make(Op::LB).memBytes(), 1u);
    EXPECT_EQ(make(Op::LHU).memBytes(), 2u);
    EXPECT_EQ(make(Op::SW).memBytes(), 4u);
    EXPECT_EQ(make(Op::LD).memBytes(), 8u);
    EXPECT_TRUE(make(Op::LW).memSigned());
    EXPECT_FALSE(make(Op::LWU).memSigned());
}

TEST(Isa, FuClasses)
{
    EXPECT_EQ(make(Op::ADD).fuClass(), FuClass::Alu);
    EXPECT_EQ(make(Op::MUL).fuClass(), FuClass::Mul);
    EXPECT_EQ(make(Op::DIV).fuClass(), FuClass::Div);
    EXPECT_EQ(make(Op::BEQ).fuClass(), FuClass::Branch);
    EXPECT_EQ(make(Op::LD).fuClass(), FuClass::Load);
    EXPECT_EQ(make(Op::SD).fuClass(), FuClass::Store);
    EXPECT_EQ(make(Op::NOP).fuClass(), FuClass::None);
}

TEST(Isa, AluSemantics)
{
    EXPECT_EQ(evalAlu(make(Op::ADD), 2, 3), 5u);
    EXPECT_EQ(evalAlu(make(Op::SUB), 2, 3), static_cast<RegVal>(-1));
    EXPECT_EQ(evalAlu(make(Op::SRA), static_cast<RegVal>(-8), 1),
              static_cast<RegVal>(-4));
    EXPECT_EQ(evalAlu(make(Op::SRL), static_cast<RegVal>(-8), 1),
              (~RegVal(0) - 7) >> 1);
    EXPECT_EQ(evalAlu(make(Op::SLT), static_cast<RegVal>(-1), 1), 1u);
    EXPECT_EQ(evalAlu(make(Op::SLTU), static_cast<RegVal>(-1), 1), 0u);
    EXPECT_EQ(evalAlu(make(Op::MUL), 7, 6), 42u);
    EXPECT_EQ(evalAlu(make(Op::ADDI, 0, 0, 0, -5), 3, 0),
              static_cast<RegVal>(-2));
    EXPECT_EQ(evalAlu(make(Op::LI, 0, 0, 0, 123), 0, 0), 123u);
}

TEST(Isa, DivisionEdgeCases)
{
    // RISC-V semantics: div by zero = -1, rem by zero = dividend.
    EXPECT_EQ(evalAlu(make(Op::DIV), 10, 0), ~RegVal(0));
    EXPECT_EQ(evalAlu(make(Op::REM), 10, 0), 10u);
    // INT64_MIN / -1 = INT64_MIN, rem = 0.
    const RegVal int_min = RegVal(1) << 63;
    EXPECT_EQ(evalAlu(make(Op::DIV), int_min, static_cast<RegVal>(-1)),
              int_min);
    EXPECT_EQ(evalAlu(make(Op::REM), int_min, static_cast<RegVal>(-1)), 0u);
    EXPECT_EQ(evalAlu(make(Op::DIV), static_cast<RegVal>(-7), 2),
              static_cast<RegVal>(-3));
}

TEST(Isa, BranchSemantics)
{
    EXPECT_TRUE(evalCondBranch(make(Op::BEQ), 5, 5));
    EXPECT_FALSE(evalCondBranch(make(Op::BNE), 5, 5));
    EXPECT_TRUE(evalCondBranch(make(Op::BLT), static_cast<RegVal>(-1), 0));
    EXPECT_FALSE(evalCondBranch(make(Op::BLTU), static_cast<RegVal>(-1), 0));
    EXPECT_TRUE(evalCondBranch(make(Op::BGEU), static_cast<RegVal>(-1), 0));
}

TEST(Isa, Targets)
{
    EXPECT_EQ(evalTarget(make(Op::JAL, 1, 0, 0, 16), 0x1000, 0), 0x1010u);
    EXPECT_EQ(evalTarget(make(Op::JALR, 1, 2, 0, 5), 0x1000, 0x2000),
              0x2004u); // low bit cleared
    EXPECT_EQ(evalTarget(make(Op::BEQ, 0, 1, 2, -8), 0x1000, 0), 0xff8u);
}

TEST(Isa, Disassembly)
{
    EXPECT_EQ(disasm(make(Op::ADD, 10, 11, 12), 0), "add a0, a1, a2");
    EXPECT_EQ(disasm(make(Op::LD, 5, 2, 0, 16), 0), "ld t0, 16(sp)");
    EXPECT_EQ(disasm(make(Op::SD, 0, 2, 5, 8), 0), "sd t0, 8(sp)");
    EXPECT_EQ(disasm(make(Op::HALT), 0), "halt");
}

namespace
{

// The per-opcode switches the attribute table replaced, kept verbatim
// as the reference the table is checked against.

bool
refIsLoad(Op op)
{
    switch (op) {
      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU:
      case Op::LW: case Op::LWU: case Op::LD:
        return true;
      default:
        return false;
    }
}

bool
refIsStore(Op op)
{
    switch (op) {
      case Op::SB: case Op::SH: case Op::SW: case Op::SD:
        return true;
      default:
        return false;
    }
}

bool
refIsCondBranch(Op op)
{
    switch (op) {
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU:
        return true;
      default:
        return false;
    }
}

bool
refHasRs1(Op op)
{
    switch (op) {
      case Op::LI: case Op::JAL: case Op::NOP: case Op::HALT:
        return false;
      default:
        return true;
    }
}

bool
refHasRs2(Op op)
{
    switch (op) {
      case Op::ADD: case Op::SUB: case Op::AND: case Op::OR: case Op::XOR:
      case Op::SLL: case Op::SRL: case Op::SRA: case Op::SLT: case Op::SLTU:
      case Op::MUL: case Op::MULH: case Op::DIV: case Op::REM:
      case Op::BEQ: case Op::BNE: case Op::BLT: case Op::BGE:
      case Op::BLTU: case Op::BGEU:
      case Op::SB: case Op::SH: case Op::SW: case Op::SD:
        return true;
      default:
        return false;
    }
}

bool
refHasRd(Op op, ArchReg rd)
{
    if (rd == 0)
        return false;
    if (refIsStore(op) || refIsCondBranch(op))
        return false;
    switch (op) {
      case Op::NOP: case Op::HALT:
        return false;
      default:
        return true;
    }
}

unsigned
refMemBytes(Op op)
{
    switch (op) {
      case Op::LB: case Op::LBU: case Op::SB:
        return 1;
      case Op::LH: case Op::LHU: case Op::SH:
        return 2;
      case Op::LW: case Op::LWU: case Op::SW:
        return 4;
      case Op::LD: case Op::SD:
        return 8;
      default:
        return 0;
    }
}

bool
refMemSigned(Op op)
{
    switch (op) {
      case Op::LB: case Op::LH: case Op::LW:
        return true;
      default:
        return false;
    }
}

FuClass
refFuClass(Op op)
{
    if (refIsLoad(op))
        return FuClass::Load;
    if (refIsStore(op))
        return FuClass::Store;
    if (refIsCondBranch(op) || op == Op::JAL || op == Op::JALR)
        return FuClass::Branch;
    switch (op) {
      case Op::MUL: case Op::MULH:
        return FuClass::Mul;
      case Op::DIV: case Op::REM:
        return FuClass::Div;
      case Op::NOP: case Op::HALT:
        return FuClass::None;
      default:
        return FuClass::Alu;
    }
}

unsigned
refLatency(Op op, unsigned alu, unsigned mul, unsigned div, unsigned branch)
{
    switch (refFuClass(op)) {
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

} // namespace

TEST(Inst, PredicateTableMatchesReferenceSwitch)
{
    for (unsigned i = 0; i < static_cast<unsigned>(Op::NumOps); ++i) {
        const Op op = static_cast<Op>(i);
        SCOPED_TRACE(opName(op));
        for (ArchReg rd : {ArchReg(0), ArchReg(7)}) {
            const Inst inst = make(op, rd, 5, 6, 8);
            EXPECT_EQ(inst.isLoad(), refIsLoad(op));
            EXPECT_EQ(inst.isStore(), refIsStore(op));
            EXPECT_EQ(inst.isMem(), refIsLoad(op) || refIsStore(op));
            EXPECT_EQ(inst.isCondBranch(), refIsCondBranch(op));
            EXPECT_EQ(inst.isControl(),
                      refIsCondBranch(op) || op == Op::JAL ||
                          op == Op::JALR);
            EXPECT_EQ(inst.hasRs1(), refHasRs1(op));
            EXPECT_EQ(inst.hasRs2(), refHasRs2(op));
            EXPECT_EQ(inst.hasRd(), refHasRd(op, rd));
            EXPECT_EQ(inst.memBytes(), refMemBytes(op));
            EXPECT_EQ(inst.memSigned(), refMemSigned(op));
            EXPECT_EQ(inst.fuClass(), refFuClass(op));
            EXPECT_EQ(inst.latency(1, 3, 12, 2),
                      refLatency(op, 1, 3, 12, 2));
        }
    }
}
