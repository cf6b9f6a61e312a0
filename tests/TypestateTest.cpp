//===- TypestateTest.cpp - User-defined qualifier tests -------*- C++ -*-===//
//
// Part of the lna project: a reproduction of "Checking and Inferring Local
// Non-Aliasing" (Aiken, Foster, Kodumal, Terauchi; PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The CQual substrate generalized: flow-sensitive typestate protocols
// beyond locked/unlocked, exercised with the DMA-mapping protocol
// (dma_map / dma_sync / dma_unmap). restrict/confine recover strong
// updates for any protocol, because the recovery happens at the abstract-
// location level, not the qualifier level.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "qual/Typestate.h"

#include <gtest/gtest.h>

using namespace lna;

namespace {

struct TSModes {
  uint32_t NoConfine = 0;
  uint32_t Confine = 0;
  uint32_t AllStrong = 0;
};

TSModes analyzeDma(const std::string &Src) {
  TSModes Out;
  const TypestateProtocol &Dma = TypestateProtocol::dmaMapping();
  {
    PipelineOptions Opts;
    Opts.Mode = PipelineMode::CheckAnnotations;
    AnalysisSession S(Opts);
    EXPECT_TRUE(S.run(Src)) << S.diags().render();
    ASTContext &Ctx = S.context();
    PipelineResult &R = S.result();
    Out.NoConfine = analyzeTypestate(Ctx, R, Dma).numErrors();
    TypestateOptions Strong;
    Strong.AllStrong = true;
    Out.AllStrong = analyzeTypestate(Ctx, R, Dma, Strong).numErrors();
  }
  {
    PipelineOptions Opts;
    AnalysisSession S(Opts);
    EXPECT_TRUE(S.run(Src)) << S.diags().render();
    ASTContext &Ctx = S.context();
    PipelineResult &R = S.result();
    Out.Confine = analyzeTypestate(Ctx, R, Dma).numErrors();
  }
  return Out;
}

TEST(Typestate, ProtocolLookup) {
  const TypestateProtocol &P = TypestateProtocol::dmaMapping();
  ASSERT_NE(P.find("dma_map"), nullptr);
  ASSERT_NE(P.find("dma_sync"), nullptr);
  EXPECT_EQ(P.find("spin_lock"), nullptr);
  EXPECT_EQ(P.find("dma_map")->Required, 0);
  EXPECT_EQ(P.find("dma_map")->Post, 1);
  EXPECT_EQ(P.find("dma_sync")->Required, 1);
  EXPECT_EQ(P.find("dma_sync")->Post, 1);
  EXPECT_EQ(P.stateName(TSTop), "top");
  EXPECT_EQ(P.stateName(0), "unmapped");
}

TEST(Typestate, JoinLattice) {
  EXPECT_EQ(joinTS(0, 0), 0);
  EXPECT_EQ(joinTS(0, 1), TSTop);
  EXPECT_EQ(joinTS(TSBottom, 1), 1);
  EXPECT_EQ(joinTS(TSTop, 0), TSTop);
}

TEST(Typestate, BalancedSingletonBufferIsClean) {
  TSModes M = analyzeDma("var buf : lock;\n"
                         "fun f() : int {\n"
                         "  dma_map(buf); dma_sync(buf); dma_unmap(buf) }");
  EXPECT_EQ(M.NoConfine, 0u);
  EXPECT_EQ(M.Confine, 0u);
}

TEST(Typestate, SyncWithoutMapIsAGenuineBug) {
  TSModes M = analyzeDma("var buf : lock;\n"
                         "fun f() : int { dma_sync(buf) }");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.AllStrong, 1u);
}

TEST(Typestate, DoubleMapIsAGenuineBug) {
  TSModes M = analyzeDma("var buf : lock;\n"
                         "fun f() : int { dma_map(buf); dma_map(buf) }");
  EXPECT_EQ(M.NoConfine, 1u);
  EXPECT_EQ(M.AllStrong, 1u);
}

TEST(Typestate, BufferArrayNeedsConfine) {
  // The Figure 1 story transplanted to DMA buffers: weak updates lose the
  // mapped state; confine inference recovers it.
  TSModes M = analyzeDma(
      "var bufs : array lock;\n"
      "fun f(i : int) : int {\n"
      "  dma_map(bufs[i]);\n"
      "  dma_sync(bufs[i]);\n"
      "  dma_unmap(bufs[i]) }");
  EXPECT_GT(M.NoConfine, 0u);
  EXPECT_EQ(M.Confine, 0u);
  EXPECT_EQ(M.AllStrong, 0u);
}

TEST(Typestate, SyncRequiresWithoutTransitionStaysMapped) {
  // Several syncs in a row are fine once mapped (requires-without-
  // transition), even under weak updates in the confined scope.
  TSModes M = analyzeDma(
      "var bufs : array lock;\n"
      "fun f(i : int) : int {\n"
      "  dma_map(bufs[i]);\n"
      "  dma_sync(bufs[i]);\n"
      "  dma_sync(bufs[i]);\n"
      "  dma_sync(bufs[i]);\n"
      "  dma_unmap(bufs[i]) }");
  EXPECT_EQ(M.Confine, 0u);
}

TEST(Typestate, RestrictParameterWorksForAnyProtocol) {
  TSModes M = analyzeDma(
      "var bufs : array lock;\n"
      "fun stream(restrict b : ptr lock) : int {\n"
      "  dma_map(b); dma_sync(b); dma_unmap(b) }\n"
      "fun f(i : int) : int { stream(bufs[i]) }");
  EXPECT_EQ(M.NoConfine, 0u); // the annotation alone recovers it
}

TEST(Typestate, ProtocolsAnalyzeIndependently) {
  // A module mixing locks and DMA buffers: each protocol only sees its
  // own operations.
  const char *Src = "var g : lock;\nvar buf : lock;\n"
                    "fun f() : int {\n"
                    "  spin_lock(g);\n"
                    "  dma_map(buf);\n"
                    "  dma_unmap(buf);\n"
                    "  spin_unlock(g)\n}";
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run(Src)) << S.diags().render();
  ASTContext &Ctx = S.context();
  PipelineResult &R = S.result();
  EXPECT_EQ(
      analyzeTypestate(Ctx, R, TypestateProtocol::spinLock()).numErrors(),
      0u);
  EXPECT_EQ(
      analyzeTypestate(Ctx, R, TypestateProtocol::dmaMapping()).numErrors(),
      0u);
}

TEST(Typestate, ErrorRecordsNameTheOperationAndState) {
  PipelineOptions Opts;
  Opts.Mode = PipelineMode::CheckAnnotations;
  AnalysisSession S(Opts);
  ASSERT_TRUE(S.run("var buf : lock;\nfun f() : int { dma_unmap(buf) }"))
      << S.diags().render();
  TypestateResult Res = analyzeTypestate(S.context(), S.result(),
                                         TypestateProtocol::dmaMapping());
  ASSERT_EQ(Res.numErrors(), 1u);
  EXPECT_EQ(Res.Errors[0].Op, "dma_unmap");
  EXPECT_EQ(TypestateProtocol::dmaMapping().stateName(Res.Errors[0].Pre),
            "unmapped");
}

TEST(Typestate, ConfinePlacementTriggersOnAnyChangeType) {
  // The block heuristic anchors on change_type calls generically.
  AnalysisSession S;
  ASSERT_TRUE(S.run("var bufs : array lock;\n"
                    "fun f(i : int) : int {\n"
                    "  dma_map(bufs[i]); work(); dma_unmap(bufs[i]) }"))
      << S.diags().render();
  EXPECT_FALSE(S.result().OptionalConfines.empty());
  EXPECT_FALSE(S.result().Inference.SucceededConfines.empty());
}

} // namespace
