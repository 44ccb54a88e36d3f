package repro.core

import org.apache.spark.sql.SparkSession
import repro.clique.SparkCliqueEnum
import repro.graph.{LocalGraph, SparkGraph}

/** Spark-orchestrated IPPV: the distributed-dataflow mapping of the
  * pipeline (DESIGN.md "Spark layering").
  *
  *  - clique enumeration runs as iterated DataFrame self-joins
  *    ([[repro.clique.SparkCliqueEnum]]);
  *  - the propose phase's Frank–Wolfe rounds run distributed when the
  *    instance set is large ([[SparkKClistPP]], injected as the driver's
  *    `fwRunner`), falling back to the sequential SEQ-kClist++ on the
  *    small candidate subproblems deeper in the recursion.
  *
  * The driver logic itself ([[IPPV]]) is shared, so Spark and local runs
  * return *identical* LhCDS sets — asserted by the test suite.
  */
object SparkIPPV {

  /** Top-k LhCDSes with distributed clique enumeration + distributed
    * root-level Frank–Wolfe rounds.
    */
  def topK(
      spark: SparkSession,
      g: LocalGraph,
      h: Int,
      k: Int,
      cfg: IPPV.Config = IPPV.Config(),
      distributedFwThreshold: Int = 5000,
  ): Seq[IPPV.Lhcds] = {
    val edges = SparkGraph.fromLocal(spark, g)
    val inst = SparkCliqueEnum.collectInstances(edges, h, g.n)
    val fwRunner: (InstanceSet, Int) => KClistPP.CPState = (sub, iters) =>
      if (sub.size >= distributedFwThreshold) SparkKClistPP.run(spark, sub, iters)
      else KClistPP.fresh(sub, iters)
    IPPV.topK(g, inst, k, cfg.copy(fwRunner = fwRunner))
  }
}
