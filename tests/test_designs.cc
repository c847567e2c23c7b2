/**
 * @file
 * Tests for the design specifications (Table 1 traits, Section 4
 * capabilities), the request-expansion model, the area model
 * (Section 6.1 / Figure 14(c)), and the power model.
 */

#include <gtest/gtest.h>

#include "src/area/area_model.hh"
#include "src/controller/address_mapping.hh"
#include "src/designs/design.hh"
#include "src/designs/design_model.hh"
#include "src/power/power_model.hh"

namespace sam {
namespace {

// --------------------------------------------------------------------
// DesignSpec
// --------------------------------------------------------------------

TEST(DesignSpecs, StrideCapabilityPerDesign)
{
    EXPECT_FALSE(makeDesign(DesignKind::Baseline).supportsStride);
    EXPECT_FALSE(makeDesign(DesignKind::Ideal).supportsStride);
    for (DesignKind d :
         {DesignKind::RcNvmBit, DesignKind::RcNvmWord, DesignKind::GsDram,
          DesignKind::GsDramEcc, DesignKind::SamSub, DesignKind::SamIo,
          DesignKind::SamEn}) {
        EXPECT_TRUE(makeDesign(d).supportsStride) << designName(d);
    }
}

TEST(DesignSpecs, SubstrateTechnology)
{
    EXPECT_EQ(makeDesign(DesignKind::RcNvmBit).tech, MemTech::RRAM);
    EXPECT_EQ(makeDesign(DesignKind::RcNvmWord).tech, MemTech::RRAM);
    EXPECT_EQ(makeDesign(DesignKind::SamEn).tech, MemTech::DRAM);
    // Figure 14(a) override.
    const auto d = makeDesign(DesignKind::SamEn, EccScheme::SscDsd,
                              MemTech::RRAM, true);
    EXPECT_EQ(d.tech, MemTech::RRAM);
}

TEST(DesignSpecs, GsDramForfeitsChipkill)
{
    const auto gs = makeDesign(DesignKind::GsDram, EccScheme::SscDsd);
    EXPECT_EQ(gs.ecc, EccScheme::None);
    EXPECT_FALSE(gs.traits.reliable);
    EXPECT_TRUE(gs.zeroModeSwitchCost); // widened command interface
    EXPECT_TRUE(gs.traits.modifiesCommandInterface);

    const auto sam = makeDesign(DesignKind::SamEn, EccScheme::SscDsd);
    EXPECT_EQ(sam.ecc, EccScheme::SscDsd);
    EXPECT_TRUE(sam.traits.reliable);
    EXPECT_FALSE(sam.traits.modifiesCommandInterface);
}

TEST(DesignSpecs, Table1CriticalWordFirst)
{
    // Section 5.4.1: SAM-sub, SAM-en, RC-NVM keep the default layout;
    // SAM-IO and GS-DRAM cannot deliver critical-word-first.
    EXPECT_TRUE(makeDesign(DesignKind::RcNvmWord).traits
                    .criticalWordFirst);
    EXPECT_TRUE(makeDesign(DesignKind::SamSub).traits.criticalWordFirst);
    EXPECT_TRUE(makeDesign(DesignKind::SamEn).traits.criticalWordFirst);
    EXPECT_FALSE(makeDesign(DesignKind::SamIo).traits
                     .criticalWordFirst);
    EXPECT_FALSE(makeDesign(DesignKind::GsDram).traits
                     .criticalWordFirst);
}

TEST(DesignSpecs, LayoutAssignments)
{
    EXPECT_EQ(makeDesign(DesignKind::SamIo).layout,
              LayoutKind::SamAligned);
    EXPECT_EQ(makeDesign(DesignKind::SamSub).layout,
              LayoutKind::VerticalGroup);
    EXPECT_EQ(makeDesign(DesignKind::GsDram).layout,
              LayoutKind::GsSegmented);
    EXPECT_EQ(makeDesign(DesignKind::Baseline).layout,
              LayoutKind::RowStore);
}

TEST(DesignSpecs, PowerAdjustments)
{
    // SAM-IO fetches 4 buffers internally; SAM-en's fine-grained
    // activation avoids it and trims activation energy; SAM-sub burns
    // 2% extra background in its added SA/decode logic.
    EXPECT_DOUBLE_EQ(makeDesign(DesignKind::SamIo).power.strideBurst,
                     2.5);
    EXPECT_DOUBLE_EQ(makeDesign(DesignKind::SamEn).power.strideBurst,
                     1.0);
    EXPECT_LT(makeDesign(DesignKind::SamEn).power.strideAct, 1.0);
    EXPECT_NEAR(makeDesign(DesignKind::SamSub).power.background, 1.02,
                1e-9);
}

// --------------------------------------------------------------------
// Area model (Section 6.1 / Figure 14(c))
// --------------------------------------------------------------------

TEST(AreaModelTest, PaperTotals)
{
    EXPECT_NEAR(AreaModel::areaOverhead(DesignKind::SamSub), 0.072,
                0.001);
    EXPECT_LT(AreaModel::areaOverhead(DesignKind::SamIo), 0.0001);
    EXPECT_NEAR(AreaModel::areaOverhead(DesignKind::SamEn), 0.007,
                0.0005);
    EXPECT_NEAR(AreaModel::areaOverhead(DesignKind::RcNvmBit), 0.15,
                0.01);
    EXPECT_NEAR(AreaModel::areaOverhead(DesignKind::RcNvmWord), 0.33,
                0.01);
    EXPECT_DOUBLE_EQ(AreaModel::areaOverhead(DesignKind::Baseline), 0.0);
}

TEST(AreaModelTest, StorageAndMetalLayers)
{
    EXPECT_DOUBLE_EQ(AreaModel::storageOverhead(DesignKind::GsDramEcc),
                     0.125);
    EXPECT_DOUBLE_EQ(AreaModel::storageOverhead(DesignKind::SamEn), 0.0);
    EXPECT_EQ(AreaModel::report(DesignKind::RcNvmWord).extraMetalLayers,
              2u);
    EXPECT_EQ(AreaModel::report(DesignKind::SamEn).extraMetalLayers, 0u);
}

TEST(AreaModelTest, SamSubComponentsMatchSection61)
{
    const AreaReport r = AreaModel::report(DesignKind::SamSub);
    ASSERT_EQ(r.areaComponents.size(), 4u);
    EXPECT_NEAR(r.areaComponents[0].fraction, 0.057, 1e-9); // M2 BLs
    EXPECT_NEAR(r.areaComponents[1].fraction, 0.007, 1e-9); // M3 ctrl
    EXPECT_NEAR(r.areaComponents[2].fraction, 0.008, 1e-9); // global SAs
}

TEST(AreaModelTest, OverheadDeratesTiming)
{
    const auto sub = makeDesign(DesignKind::SamSub);
    const TimingParams base = ddr4Timing();
    const TimingParams derated = base.derated(sub.areaOverhead);
    EXPECT_GT(derated.tRCD, base.tRCD);
    const auto io = makeDesign(DesignKind::SamIo);
    EXPECT_EQ(base.derated(io.areaOverhead).tRCD, base.tRCD);
}

// --------------------------------------------------------------------
// DesignModel request expansion
// --------------------------------------------------------------------

class DesignModelTest : public ::testing::Test
{
  protected:
    Geometry geom;
    AddressMapping mapping{geom};
};

TEST_F(DesignModelTest, RegularRequestIsSingleLine)
{
    DesignModel model(makeDesign(DesignKind::SamEn), mapping, 8);
    const MemRequest r =
        model.lineRequest(AccessType::Read, 0x4000, 10, 2);
    const MappedAddr m = mapping.decompose(0x4000);
    EXPECT_TRUE(r.device.addr.sameRow(m));
    EXPECT_EQ(r.device.addr.column, m.column);
    EXPECT_FALSE(r.device.isWrite);
    EXPECT_EQ(r.device.mode, AccessMode::Regular);
    EXPECT_EQ(r.arrival, 10u);
    EXPECT_EQ(r.coreId, 2u);
    EXPECT_EQ(r.device.extraBursts, 0u);
}

TEST_F(DesignModelTest, SamStrideStaysInRowAndUsesStrideMode)
{
    DesignModel model(makeDesign(DesignKind::SamEn), mapping, 8);
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i)
        plan.lines.push_back(0x10000 + i * 1024ull); // one 8KB row
    plan.sector = 2;
    const MemRequest r =
        model.strideRequest(AccessType::StrideRead, plan, 5, 0);
    EXPECT_EQ(r.device.mode, AccessMode::Stride);
    EXPECT_FALSE(r.device.columnActivate);
    // The gather drives the row of its first source line.
    const MappedAddr first = mapping.decompose(plan.lines[0]);
    EXPECT_TRUE(r.device.addr.sameRow(first));
    EXPECT_EQ(r.device.addr.column, first.column);
    EXPECT_EQ(r.type, AccessType::StrideRead);
}

TEST_F(DesignModelTest, CrossRowSubRowGatherRejected)
{
    DesignModel model(makeDesign(DesignKind::SamIo), mapping, 8);
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i)
        plan.lines.push_back(i * Addr{8192}); // 8 different rows
    EXPECT_THROW(
        model.strideRequest(AccessType::StrideRead, plan, 0, 0),
        std::logic_error);
}

TEST_F(DesignModelTest, ColumnSubarrayGetsSyntheticRow)
{
    DesignModel model(makeDesign(DesignKind::SamSub), mapping, 8);
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i)
        plan.lines.push_back(0x40000000ull + i * (Addr{8192} * 32));
    plan.sector = 1;
    const MemRequest a =
        model.strideRequest(AccessType::StrideRead, plan, 0, 0);
    EXPECT_TRUE(a.device.columnActivate);
    // Same field column again: same synthetic row (buffer hit).
    const MemRequest b =
        model.strideRequest(AccessType::StrideRead, plan, 0, 0);
    EXPECT_EQ(a.device.addr.row, b.device.addr.row);
    // A different field column opens a different column row.
    GatherPlan plan2 = plan;
    plan2.sector = 5;
    const MemRequest c =
        model.strideRequest(AccessType::StrideRead, plan2, 0, 0);
    EXPECT_NE(a.device.addr.row, c.device.addr.row);
}

TEST_F(DesignModelTest, GsDramStrideAvoidsModeSwitch)
{
    DesignModel model(makeDesign(DesignKind::GsDram), mapping, 8);
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i)
        plan.lines.push_back(0x20000 + i * 64ull);
    const MemRequest r =
        model.strideRequest(AccessType::StrideRead, plan, 0, 0);
    EXPECT_EQ(r.device.mode, AccessMode::Regular);
}

TEST_F(DesignModelTest, EmbeddedEccAddsBursts)
{
    DesignModel model(makeDesign(DesignKind::GsDramEcc), mapping, 8);
    // First access to an ECC region: +1 fetch. Neighbouring line under
    // the same ECC line: no extra. A write: +1 update burst.
    const MemRequest a =
        model.lineRequest(AccessType::Read, 0x0, 0, 0);
    EXPECT_EQ(a.device.extraBursts, 1u);
    const MemRequest b =
        model.lineRequest(AccessType::Read, 0x40, 0, 0);
    EXPECT_EQ(b.device.extraBursts, 0u);
    const MemRequest c =
        model.lineRequest(AccessType::Write, 0x80000, 0, 0);
    EXPECT_EQ(c.device.extraBursts, 2u); // new ECC line + write-back
    model.reset();
    const MemRequest d =
        model.lineRequest(AccessType::Read, 0x40, 0, 0);
    EXPECT_EQ(d.device.extraBursts, 1u); // tracker cleared
}

TEST_F(DesignModelTest, BaselineRejectsStride)
{
    DesignModel model(makeDesign(DesignKind::Baseline), mapping, 8);
    GatherPlan plan;
    plan.lines.assign(8, 0x1000);
    EXPECT_THROW(
        model.strideRequest(AccessType::StrideRead, plan, 0, 0),
        std::logic_error);
}

TEST_F(DesignModelTest, SamIoStrideReadsCarryCwfLatency)
{
    DesignModel io(makeDesign(DesignKind::SamIo), mapping, 8);
    DesignModel en(makeDesign(DesignKind::SamEn), mapping, 8);
    GatherPlan plan;
    for (unsigned i = 0; i < 8; ++i)
        plan.lines.push_back(0x10000 + i * 1024ull);
    EXPECT_GT(io.strideRequest(AccessType::StrideRead, plan, 0, 0)
                  .device.extraLatency,
              0u);
    EXPECT_EQ(en.strideRequest(AccessType::StrideRead, plan, 0, 0)
                  .device.extraLatency,
              0u);
}

// --------------------------------------------------------------------
// Power model
// --------------------------------------------------------------------

TEST(PowerModelTest, EnergyComposesFromCounters)
{
    const PowerModel pm(ddr4Idd(), ddr4Timing(), 18);
    DeviceStats stats;
    stats.activates += 100;
    stats.reads += 1000;
    stats.writes += 200;
    stats.busBusyCycles += 4800;
    const PowerBreakdown p = pm.compute(stats, 100000);
    EXPECT_GT(p.actEnergyPj, 0.0);
    EXPECT_GT(p.rdwrEnergyPj, 0.0);
    EXPECT_GT(p.backgroundEnergyPj, 0.0);
    EXPECT_NEAR(p.totalEnergyPj(),
                p.actEnergyPj + p.rdwrEnergyPj + p.backgroundEnergyPj +
                    p.refreshEnergyPj,
                1e-6);
    EXPECT_GT(p.totalPowerMw(), 0.0);
}

TEST(PowerModelTest, StrideBurstFactorRaisesReadEnergy)
{
    DeviceStats stats;
    stats.strideReads += 1000;
    stats.activates += 10;
    const PowerModel plain(ddr4Idd(), ddr4Timing(), 18, {});
    const PowerModel wide(ddr4Idd(), ddr4Timing(), 18,
                          {1.0, 4.0, 1.0}); // SAM-IO
    const auto p0 = plain.compute(stats, 50000, 1.0);
    const auto p1 = wide.compute(stats, 50000, 1.0);
    EXPECT_NEAR(p1.rdwrEnergyPj / p0.rdwrEnergyPj, 4.0, 1e-6);
    EXPECT_DOUBLE_EQ(p1.backgroundEnergyPj, p0.backgroundEnergyPj);
}

TEST(PowerModelTest, FineGrainedActivationSavesActEnergy)
{
    DeviceStats stats;
    stats.activates += 1000;
    const PowerModel plain(ddr4Idd(), ddr4Timing(), 18, {});
    const PowerModel fga(ddr4Idd(), ddr4Timing(), 18,
                         {1.0, 1.0, 0.5}); // SAM-en option 1
    const auto p0 = plain.compute(stats, 50000, 1.0);
    const auto p1 = fga.compute(stats, 50000, 1.0);
    EXPECT_NEAR(p1.actEnergyPj / p0.actEnergyPj, 0.5, 1e-6);
    // With no stride traffic the factor is inert.
    const auto q0 = plain.compute(stats, 50000, 0.0);
    const auto q1 = fga.compute(stats, 50000, 0.0);
    EXPECT_DOUBLE_EQ(q1.actEnergyPj, q0.actEnergyPj);
}

TEST(PowerModelTest, RramHasTinyBackgroundAndCostlyWrites)
{
    const IddParams dram = ddr4Idd();
    const IddParams rram = rramIdd();
    EXPECT_LT(rram.idd3n, dram.idd3n / 3.0);
    EXPECT_GT(rram.idd4w, dram.idd4w * 2.0);
    EXPECT_DOUBLE_EQ(rram.idd5b, 0.0); // no refresh
}

TEST(PowerModelTest, RefreshEnergyCounted)
{
    DeviceStats stats;
    stats.refreshes += 50;
    const PowerModel pm(ddr4Idd(), ddr4Timing(), 18);
    const auto p = pm.compute(stats, 500000);
    EXPECT_GT(p.refreshEnergyPj, 0.0);
}

} // namespace
} // namespace sam
