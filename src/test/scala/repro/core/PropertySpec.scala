package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.clique.{CliqueCore, CliqueEnum}
import repro.graph.LocalGraph

/** ScalaCheck property tests: randomized structural invariants over
  * generated graphs, run through scalacheck's engine and asserted from
  * ScalaTest. Complements the seeded brute-force suites with broader
  * random coverage.
  */
class PropertySpec extends SparkSpec {

  private val genGraph: Gen[LocalGraph] = for {
    n <- Gen.choose(3, 10)
    p <- Gen.choose(0.2, 0.7)
    seed <- Gen.choose(0L, 1000000L)
  } yield {
    val rnd = new scala.util.Random(seed)
    LocalGraph.fromEdges(n,
      for { u <- 0 until n; v <- u + 1 until n; if rnd.nextDouble() < p } yield (u, v))
  }

  private def check(name: String, prop: Prop, minSuccessful: Int = 60): Unit = {
    val res = SCTest.check(
      SCTest.Parameters.default.withMinSuccessfulTests(minSuccessful), prop)
    assert(res.passed, s"$name: $res")
  }

  test("property: IPPV equals brute force (h=3)") {
    check("ippv-h3", Prop.forAll(genGraph) { g =>
      val inst = CliqueEnum.enumerate(g, 3)
      val got = IPPV.topK(g, inst, g.n + 1).map(_.vertices.toSeq)
      val want = BruteForce.allLhCDS(g, inst).map(_._1.toSeq)
      got == want
    })
  }

  test("property: IPPV equals brute force (h=2)") {
    check("ippv-h2", Prop.forAll(genGraph) { g =>
      val inst = CliqueEnum.enumerate(g, 2)
      val got = IPPV.topK(g, inst, g.n + 1).map(_.vertices.toSeq)
      val want = BruteForce.allLhCDS(g, inst).map(_._1.toSeq)
      got == want
    }, minSuccessful = 40)
  }

  test("property: fast and basic verification agree on self-densest subsets") {
    check("verify-agree", Prop.forAll(genGraph, Gen.choose(0L, 1000L)) { (g, s) =>
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size == 0) true
      else {
        val cores = CliqueCore.coreNumbers(inst)
        val (ub, lb) = Bounds.initial(cores, 3)
        val none = new Array[Boolean](g.n)
        val rnd = new scala.util.Random(s)
        val vs = (0 until g.n).filter(_ => rnd.nextBoolean()).toArray
        val mask = new Array[Boolean](g.n); vs.foreach(mask(_) = true)
        if (vs.isEmpty || inst.countWithin(mask) == 0 || !Verify.isDensest(inst, vs)) true
        else Verify.fastVerify(g, inst, vs, ub, lb, none) == Verify.basicVerify(g, inst, vs)
      }
    })
  }

  test("property: clique enumeration matches brute force for h drawn at random") {
    check("cliques", Prop.forAll(genGraph, Gen.choose(2, 5)) { (g, h) =>
      CliqueEnum.enumerate(g, h).members.map(_.toSeq).toSet ==
        CliqueEnum.bruteForce(g, h).members.map(_.toSeq).toSet
    })
  }

  test("property: clique-core peeling matches brute force") {
    check("cores", Prop.forAll(genGraph, Gen.choose(2, 4)) { (g, h) =>
      val inst = CliqueEnum.enumerate(g, h)
      CliqueCore.coreNumbers(inst).toSeq == CliqueCore.bruteForce(inst).toSeq
    })
  }

  test("property: exactDensest returns the true maximum-density subgraph") {
    check("densest", Prop.forAll(genGraph) { g =>
      val inst = CliqueEnum.enumerate(g, 3)
      val (vs, num, den) = Verify.exactDensest(g.n, inst)
      val cnt = BruteForce.subsetInstanceCounts(g.n, inst)
      var bn = 0L; var bd = 1L
      for (mask <- 1 until (1 << g.n)) {
        val c = cnt(mask).toLong; val sz = Integer.bitCount(mask).toLong
        if (BruteForce.ratLt(bn, bd, c, sz)) { bn = c; bd = sz }
      }
      if (inst.size == 0) vs.isEmpty else num * bd == bn * den
    })
  }

  test("property: Frank-Wolfe state stays feasible under random iteration counts") {
    check("fw-feasible", Prop.forAll(genGraph, Gen.choose(1, 60)) { (g, iters) =>
      val inst = CliqueEnum.enumerate(g, 3)
      val st = KClistPP.fresh(inst, iters)
      val sums = (0 until inst.size).map(i => st.alpha(i).sum)
      sums.forall(s => math.abs(s - 1.0) < 1e-9) &&
        math.abs(st.r.sum - inst.size) < 1e-7 &&
        st.alpha.forall(_.forall(_ >= 0.0))
    })
  }

  test("property: stable groups always bracket brute-force compact numbers") {
    check("sg-bounds", Prop.forAll(genGraph, Gen.choose(10, 80)) { (g, iters) =>
      val inst = CliqueEnum.enumerate(g, 3)
      if (inst.size == 0) true
      else {
        val st = KClistPP.fresh(inst, iters)
        TentativeGD.run(st)
        val res = StableGroups.derive(st)
        val phi = BruteForce.compactNumbers(g, inst)
        res.groups.zipWithIndex.forall { case (grp, gi) =>
          grp.forall { v =>
            val exact = phi(v)._1.toDouble / phi(v)._2
            exact <= res.groupMaxR(gi) + Bounds.groupSlack &&
              exact >= res.groupMinR(gi) - Bounds.groupSlack
          }
        }
      }
    })
  }

  test("property: LhxPDS via IPPV equals brute force for a random 4-pattern") {
    import repro.pattern.PatternEnum
    check("pattern", Prop.forAll(genGraph, Gen.oneOf(PatternEnum.all4)) { (g, p) =>
      val inst = PatternEnum.instances4(g, p)
      val got = IPPV.topK(g, inst, g.n + 1).map(_.vertices.toSeq)
      val want = BruteForce.allLhCDS(g, inst).map(_._1.toSeq)
      got == want
    }, minSuccessful = 40)
  }
}
