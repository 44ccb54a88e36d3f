package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.clique.CliqueEnum

class StableGroupsSpec extends SparkSpec {

  private def prepared(seed: Int, h: Int = 3, iters: Int = 50) = {
    val g = TestGraphs.random(11, 0.5, seed)
    val inst = CliqueEnum.enumerate(g, h)
    val st = KClistPP.fresh(inst, iters)
    TentativeGD.run(st)
    (g, inst, st)
  }

  for (seed <- 1 to 6) {
    test(s"derived groups satisfy the literal Definition 6 (seed=$seed)") {
      val (_, inst, st) = prepared(seed)
      val res = StableGroups.derive(st)
      assert(res.groups.flatten.sorted.toSeq == (0 until inst.n))
      for (grp <- res.groups)
        assert(StableGroups.isStableGroup(st, grp), s"group ${grp.toSeq}")
    }
  }

  test("groups are ordered by descending r ranges") {
    val (_, _, st) = prepared(7)
    val res = StableGroups.derive(st)
    for (i <- 0 until res.groups.length - 1)
      assert(res.groupMinR(i) > res.groupMaxR(i + 1))
  }

  test("Theorem 4: group brackets contain the exact compact numbers") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(9, 0.55, seed + 60)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val st = KClistPP.fresh(inst, 80)
        TentativeGD.run(st)
        val res = StableGroups.derive(st)
        val phi = BruteForce.compactNumbers(g, inst)
        for ((grp, gi) <- res.groups.zipWithIndex; v <- grp) {
          val exact = phi(v)._1.toDouble / phi(v)._2
          assert(exact <= res.groupMaxR(gi) + Bounds.groupSlack, s"seed=$seed v=$v ub")
          assert(exact >= res.groupMinR(gi) - Bounds.groupSlack, s"seed=$seed v=$v lb")
        }
      }
    }
  }

  test("tightenBounds only narrows and stays valid") {
    val (g, inst, st) = prepared(8)
    val res = StableGroups.derive(st)
    val ub = Array.fill(inst.n)(1e9)
    val lb = Array.fill(inst.n)(-1.0)
    StableGroups.tightenBounds(res, ub, lb)
    val phi = BruteForce.compactNumbers(g, inst)
    for (v <- 0 until inst.n) {
      val exact = phi(v)._1.toDouble / phi(v)._2
      assert(lb(v) <= exact + 1e-9 && exact <= ub(v) + 1e-9, s"v=$v")
      assert(ub(v) < 1e9)
    }
  }

  test("a bridged pair of cliques yields the two cliques as distinct groups") {
    val g = TestGraphs.twoCliquesBridged(6, 4)
    val inst = CliqueEnum.enumerate(g, 3)
    val st = KClistPP.fresh(inst, 150)
    TentativeGD.run(st)
    val res = StableGroups.derive(st)
    val asSets = res.groups.map(_.toSet)
    assert(asSets.exists(_ == (0 until 6).toSet))
    assert(asSets.exists(_ == (6 until 10).toSet))
  }

  test("the whole vertex set is always a trivially stable group") {
    val (_, inst, st) = prepared(9)
    assert(StableGroups.isStableGroup(st, (0 until inst.n).toArray))
  }
}
