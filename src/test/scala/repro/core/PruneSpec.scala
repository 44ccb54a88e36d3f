package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.clique.{CliqueCore, CliqueEnum}
import repro.graph.LocalGraph

class PruneSpec extends SparkSpec {

  test("condition 1 prunes a pendant next to a dense clique") {
    // K5 plus pendant vertex 5 attached to 0
    val g = LocalGraph.fromEdges(6,
      (for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)) :+ (0, 5))
    val inst = CliqueEnum.enumerate(g, 3)
    // exact bounds: K5 members φ=2, pendant φ=0
    val ub = Array(2.0, 2, 2, 2, 2, 0).map(_ + 1e-12)
    val lb = Array(2.0, 2, 2, 2, 2, 0).map(_ - 1e-12)
    val alive = Prune.run(g, inst, ub, lb)
    assert(alive.toSeq == Seq(true, true, true, true, true, false))
  }

  test("condition 2 cascades after condition-1 removals") {
    // triangle chain: K4 (0..3); vertices 4,5 form triangles only with the
    // K4 boundary: 4-5-0 triangle. With tight bounds, pruning 4 and 5 via
    // cond-1 leaves core checks intact for the K4.
    val g = LocalGraph.fromEdges(6,
      (for (i <- 0 until 4; j <- i + 1 until 4) yield (i, j)) ++ Seq((4, 5), (4, 0), (5, 0)))
    val inst = CliqueEnum.enumerate(g, 3)
    val phi = BruteForce.compactNumbers(g, inst)
    val ub = phi.map(p => p._1.toDouble / p._2 + 1e-12)
    val lb = phi.map(p => p._1.toDouble / p._2 - 1e-12)
    val alive = Prune.run(g, inst, ub, lb)
    assert((0 until 4).forall(alive(_)))
    assert(!alive(4) && !alive(5))
  }

  for (seed <- 1 to 8) {
    test(s"pruning never removes an LhCDS member (seed=$seed)") {
      val g = TestGraphs.random(9, 0.5, seed + 800)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val cores = CliqueCore.coreNumbers(inst)
        val (ub, lb) = Bounds.initial(cores, 3)
        // tighten with a CP round, as the driver does
        val st = KClistPP.fresh(inst, 60)
        TentativeGD.run(st)
        StableGroups.tightenBounds(StableGroups.derive(st), ub, lb)
        val alive = Prune.run(g, inst, ub, lb)
        for ((vs, _, _) <- BruteForce.allLhCDS(g, inst); v <- vs)
          assert(alive(v), s"LhCDS member $v pruned (seed=$seed)")
      }
    }
  }

  test("nothing is pruned with trivial bounds") {
    val g = TestGraphs.random(10, 0.4, 5)
    val inst = CliqueEnum.enumerate(g, 3)
    val ub = Array.fill(g.n)(1e9)
    val lb = Array.fill(g.n)(-1.0)
    assert(Prune.run(g, inst, ub, lb).forall(identity))
  }
}
