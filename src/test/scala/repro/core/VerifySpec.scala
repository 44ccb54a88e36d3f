package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.clique.{CliqueCore, CliqueEnum}
import repro.graph.LocalGraph

class VerifySpec extends SparkSpec {

  test("lcmUpTo") {
    assert(Verify.lcmUpTo(2) == 2)
    assert(Verify.lcmUpTo(3) == 6)
    assert(Verify.lcmUpTo(5) == 60)
    assert(Verify.lcmUpTo(9) == 2520)
  }

  /** Brute force: the union of all maximal ρ-compact subgraphs. */
  private def bruteMaximalCompact(g: LocalGraph, inst: InstanceSet, num: Long, den: Long): Set[Int] = {
    val cnt = BruteForce.subsetInstanceCounts(g.n, inst)
    var union = Set.empty[Int]
    for (mask <- 1 until (1 << g.n)) {
      if (BruteForce.connectedMask(g, mask)) {
        val (cn, cd) = BruteForce.compactness(cnt, mask)
        if (!BruteForce.ratLt(cn, cd, num, den)) // compactness >= ρ
          union ++= (0 until g.n).filter(v => (mask & (1 << v)) != 0)
      }
    }
    union
  }

  for (seed <- 1 to 8) {
    test(s"DeriveCompact(ρ−δ) returns the union of maximal ρ-compact subgraphs (seed=$seed)") {
      val g = TestGraphs.random(8, 0.5, seed + 200)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        // test at every density value present among connected subsets
        val (num, den) = inst.densityOf((0 until g.n).filter(v => inst.degrees(v) > 0).toArray)
        for ((tn, td) <- Seq((num, den.toLong), (1L, 2L), (1L, 1L), (3L, 2L))) {
          val side = Verify.deriveCompact(g.n, 3, inst.members, Array.empty, tn, td, -1)
          val got = (0 until g.n).filter(side(_)).toSet
          val want = bruteMaximalCompact(g, inst, tn, td)
          assert(got == want, s"ρ=$tn/$td got=$got want=$want")
        }
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"exactDensest matches brute force (seed=$seed)") {
      val g = TestGraphs.random(9, 0.5, seed + 300)
      val inst = CliqueEnum.enumerate(g, 3)
      val (vs, num, den) = Verify.exactDensest(g.n, inst)
      // brute force densest density
      val cnt = BruteForce.subsetInstanceCounts(g.n, inst)
      var bn = 0L; var bd = 1L
      for (mask <- 1 until (1 << g.n)) {
        val c = cnt(mask).toLong; val s = Integer.bitCount(mask).toLong
        if (BruteForce.ratLt(bn, bd, c, s)) { bn = c; bd = s }
      }
      if (inst.size == 0) assert(vs.isEmpty)
      else {
        assert(num * bd == bn * den, s"density ${num}/${den} vs brute $bn/$bd")
        // and vs must actually realize it
        val mask = new Array[Boolean](g.n); vs.foreach(mask(_) = true)
        assert(inst.countWithin(mask) * den == num * vs.length)
        // largest: adding any one vertex strictly lowers the density
        for (extra <- 0 until g.n if !mask(extra)) {
          mask(extra) = true
          assert(inst.countWithin(mask) * den < num * (vs.length + 1), s"extra=$extra")
          mask(extra) = false
        }
      }
    }
  }

  test("isDensest: a clique is self-densest; clique+pendant is not") {
    val k = LocalGraph.complete(5)
    val ki = CliqueEnum.enumerate(k, 3)
    assert(Verify.isDensest(ki, (0 until 5).toArray))
    val g = LocalGraph.fromEdges(6, (for (i <- 0 until 5; j <- i + 1 until 5) yield (i, j)) :+ (0, 5))
    val gi = CliqueEnum.enumerate(g, 3)
    assert(!Verify.isDensest(gi, (0 until 6).toArray))
    assert(Verify.isDensest(gi, (0 until 5).toArray))
  }

  for (seed <- 1 to 6) {
    test(s"isDensest matches brute force on random subsets (seed=$seed)") {
      val g = TestGraphs.random(8, 0.55, seed + 400)
      val inst = CliqueEnum.enumerate(g, 3)
      val cnt = BruteForce.subsetInstanceCounts(g.n, inst)
      val rnd = new scala.util.Random(seed)
      for (_ <- 1 to 6) {
        val vs = (0 until g.n).filter(_ => rnd.nextBoolean()).toArray
        if (vs.nonEmpty) {
          val sMask = vs.foldLeft(0)((m, v) => m | (1 << v))
          val sNum = cnt(sMask).toLong
          if (sNum > 0) {
            val sDen = vs.length.toLong
            var denserExists = false
            var sub = (sMask - 1) & sMask
            while (sub != 0 && !denserExists) {
              if (BruteForce.ratLt(sNum, sDen, cnt(sub).toLong, Integer.bitCount(sub).toLong))
                denserExists = true
              sub = (sub - 1) & sMask
            }
            assert(Verify.isDensest(inst, vs) == !denserExists, s"vs=${vs.toSeq}")
          }
        }
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"basicVerify accepts exactly the brute-force LhCDSes among candidates (seed=$seed)") {
      val g = TestGraphs.random(8, 0.5, seed + 500)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val truth = BruteForce.allLhCDS(g, inst).map(_._1.toSeq).toSet
        // candidates: all connected subsets that are self-densest
        for (mask <- 1 until (1 << g.n)) {
          if (BruteForce.connectedMask(g, mask)) {
            val vs = (0 until g.n).filter(v => (mask & (1 << v)) != 0).toArray
            val m2 = new Array[Boolean](g.n); vs.foreach(m2(_) = true)
            if (inst.countWithin(m2) > 0 && Verify.isDensest(inst, vs)) {
              val expected = truth.contains(vs.toSeq)
              assert(Verify.basicVerify(g, inst, vs) == expected, s"vs=${vs.toSeq}")
            }
          }
        }
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"fastVerify agrees with basicVerify under core bounds (seed=$seed)") {
      val g = TestGraphs.random(8, 0.5, seed + 600)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val cores = CliqueCore.coreNumbers(inst)
        val (ub, lb) = Bounds.initial(cores, 3)
        val none = new Array[Boolean](g.n)
        for (mask <- 1 until (1 << g.n)) {
          if (BruteForce.connectedMask(g, mask)) {
            val vs = (0 until g.n).filter(v => (mask & (1 << v)) != 0).toArray
            val m2 = new Array[Boolean](g.n); vs.foreach(m2(_) = true)
            if (inst.countWithin(m2) > 0 && Verify.isDensest(inst, vs)) {
              assert(Verify.fastVerify(g, inst, vs, ub, lb, none) ==
                     Verify.basicVerify(g, inst, vs), s"vs=${vs.toSeq}")
            }
          }
        }
      }
    }
  }

  test("fastVerify with tight bounds still matches (exact φ as bounds)") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(8, 0.5, seed + 700)
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size > 0) {
        val phi = BruteForce.compactNumbers(g, inst)
        val ub = phi.map(p => p._1.toDouble / p._2 + 1e-12)
        val lb = phi.map(p => p._1.toDouble / p._2 - 1e-12)
        val none = new Array[Boolean](g.n)
        val truth = BruteForce.allLhCDS(g, inst).map(_._1.toSeq).toSet
        for ((vs, _, _) <- BruteForce.allLhCDS(g, inst))
          assert(Verify.fastVerify(g, inst, vs, ub, lb, none), s"true LhCDS ${vs.toSeq} rejected")
        // and some non-LhCDS self-densest candidates must be rejected
        for (mask <- 1 until (1 << g.n)) {
          if (BruteForce.connectedMask(g, mask)) {
            val vs = (0 until g.n).filter(v => (mask & (1 << v)) != 0).toArray
            val m2 = new Array[Boolean](g.n); vs.foreach(m2(_) = true)
            if (inst.countWithin(m2) > 0 && Verify.isDensest(inst, vs) && !truth.contains(vs.toSeq))
              assert(!Verify.fastVerify(g, inst, vs, ub, lb, none), s"false accept ${vs.toSeq}")
          }
        }
      }
    }
  }

  test("boundary gadget (Fig 7): permanent outside members reproduce the full-graph cut") {
    // K6 over 0..5; T = {0..4}, x = 5 excluded. Every triangle {i,j,x}
    // becomes a boundary instance with cnt = 2 and capacity h/cnt = 3/2
    // into its two T-members. The maximal ρ-compact subgraphs of G
    // restricted to T must match DeriveCompact(G[T], ρ−δ, P).
    val g6 = LocalGraph.complete(6)
    val inst6 = CliqueEnum.enumerate(g6, 3)
    val tVerts = (0 until 5).toArray
    val internal = inst6.members.filter(_.forall(_ < 5))
    val boundary = inst6.members.filter(_.contains(5)).map(_.filter(_ < 5))
    assert(internal.length == 10 && boundary.length == 10)
    // ρ = 10/3 (= density of K6): whole K6 is maximal ρ-compact → T side = all
    val sideLo = Verify.deriveCompact(5, 3, internal, boundary, 10, 3, -1)
    assert(sideLo.forall(identity))
    val fullLo = Verify.deriveCompact(6, 3, inst6.members, Array.empty, 10, 3, -1)
    assert((0 until 5).forall(v => sideLo(v) == fullLo(v)))
    // The gadget's precondition is φ(outside member) ≥ ρ (the paper uses
    // it for lb > ρ vertices only). Above that — ρ = 4 > φ(x) = 10/3 —
    // its "x is permanent and free" semantics legitimately diverge from
    // the full graph: {0..4} IS 4-compact when x never counts toward the
    // removal cost (removing any vertex kills 6 internal + 4 boundary
    // triangles ≥ 4), while nothing in K6 itself is 4-compact.
    val sideHi = Verify.deriveCompact(5, 3, internal, boundary, 4, 1, -1)
    val fullHi = Verify.deriveCompact(6, 3, inst6.members, Array.empty, 4, 1, -1)
    assert(sideHi.forall(identity))
    assert(!fullHi.exists(identity))
    // and at ρ = 5 even the permanent-x reading fails (20 weighted
    // triangles < 5·5 for the full removal)
    val sideVHi = Verify.deriveCompact(5, 3, internal, boundary, 5, 1, -1)
    assert(!sideVHi.exists(identity))
  }

  test("deriveCompact boundary gadget: P instances raise the compactness as in G") {
    // K4 (0..3) with vertex 4 adjacent to 0,1,2 (forming extra triangles).
    // Verify the K4 alone: triangles touching 4 are boundary instances.
    val g = LocalGraph.fromEdges(5,
      (for (i <- 0 until 4; j <- i + 1 until 4) yield (i, j)) ++ Seq((4, 0), (4, 1), (4, 2)))
    val inst = CliqueEnum.enumerate(g, 3)
    val cores = CliqueCore.coreNumbers(inst)
    val (ub, lb) = Bounds.initial(cores, 3)
    val none = new Array[Boolean](g.n)
    val whole = (0 until 5).toArray
    val k4 = (0 until 4).toArray
    assert(Verify.fastVerify(g, inst, whole, ub, lb, none) ==
           Verify.basicVerify(g, inst, whole))
    assert(Verify.fastVerify(g, inst, k4, ub, lb, none) ==
           Verify.basicVerify(g, inst, k4))
  }
}
