package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.clique.CliqueEnum

/** Distributed pieces: SparkKClistPP and the Spark-orchestrated SparkIPPV. */
class SparkCoreSpec extends SparkSpec {

  test("SparkKClistPP produces a feasible state aligned with the instance order") {
    val g = TestGraphs.random(14, 0.45, 21)
    val inst = CliqueEnum.enumerate(g, 3)
    val st = SparkKClistPP.run(spark, inst, 15)
    assert(st.t == 15)
    for (i <- 0 until inst.size) {
      assert(math.abs(st.alpha(i).sum - 1.0) < 1e-9)
      assert(st.alpha(i).forall(_ >= 0.0))
    }
    assert(math.abs(st.r.sum - inst.size) < 1e-6)
  }

  test("distributed rounds converge on a single clique to the uniform level") {
    val inst = CliqueEnum.enumerate(repro.graph.LocalGraph.complete(5), 3)
    val st = SparkKClistPP.run(spark, inst, 150)
    assert(st.r.forall(r => math.abs(r - 2.0) < 0.1), st.r.toSeq.toString)
  }

  test("distributed r separates dense from sparse like the sequential variant") {
    val g = TestGraphs.twoCliquesBridged(6, 3)
    val inst = CliqueEnum.enumerate(g, 3)
    val dist = SparkKClistPP.run(spark, inst, 60)
    val seq = KClistPP.fresh(inst, 60)
    val dMin = (0 until 6).map(dist.r(_)).min
    val dMax = (6 until 9).map(dist.r(_)).max
    assert(dMin > dMax)
    // both should approximate the same compact levels (2.222… and 1/3-ish)
    for (v <- 0 until 9)
      assert(math.abs(dist.r(v) - seq.r(v)) < 0.5, s"v=$v dist=${dist.r(v)} seq=${seq.r(v)}")
  }

  test("SparkIPPV returns exactly the local IPPV results") {
    for (seed <- 1 to 3) {
      val g = TestGraphs.random(12, 0.5, seed + 6100)
      val inst = CliqueEnum.enumerate(g, 3)
      val local = IPPV.topK(g, inst, 10)
      val viaSpark = SparkIPPV.topK(spark, g, 3, 10)
      assert(viaSpark.map(_.vertices.toSeq) == local.map(_.vertices.toSeq), s"seed=$seed")
    }
  }

  test("SparkIPPV with a forced-distributed FW threshold stays exact") {
    val (g, _) = repro.SynthGraphs.plantedCommunities(30, 0.06, Seq((7, 1.0), (5, 1.0)), 55)
    val inst = CliqueEnum.enumerate(g, 3)
    val local = IPPV.topK(g, inst, 5)
    val viaSpark = SparkIPPV.topK(spark, g, 3, 5, distributedFwThreshold = 1)
    assert(viaSpark.map(_.vertices.toSeq) == local.map(_.vertices.toSeq))
  }
}
