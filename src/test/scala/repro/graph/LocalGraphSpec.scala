package repro.graph

import repro.{SparkSpec, TestGraphs}

class LocalGraphSpec extends SparkSpec {

  test("fromEdges removes self loops and duplicates, both directions") {
    val g = LocalGraph.fromEdges(4, Seq((0, 1), (1, 0), (0, 1), (2, 2), (1, 2)))
    assert(g.m == 2)
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(g.hasEdge(1, 2) && !g.hasEdge(0, 2) && !g.hasEdge(2, 2))
  }

  test("fromEdges rejects out-of-range endpoints") {
    for (e <- Seq((0, 2), (5, 5), (-1, -1)))
      intercept[IllegalArgumentException](LocalGraph.fromEdges(2, Seq(e)))
  }

  test("degrees and neighbor lists are sorted") {
    val g = LocalGraph.fromEdges(5, Seq((3, 1), (3, 0), (3, 4), (1, 0)))
    assert(g.degree(3) == 3)
    assert(g.neighbors(3).toSeq == Seq(0, 1, 4))
    assert(g.degree(2) == 0)
  }

  test("edges lists each undirected edge once with u < v") {
    val g = TestGraphs.random(12, 0.4, 1)
    val es = g.edges
    assert(es.size == g.m)
    assert(es.forall { case (u, v) => u < v && g.hasEdge(u, v) })
    assert(es.distinct.size == es.size)
  }

  test("complete graph has n(n-1)/2 edges") {
    val g = LocalGraph.complete(6)
    assert(g.m == 15)
    assert((0 until 6).forall(v => g.degree(v) == 5))
  }

  test("cycle, path and star shapes") {
    assert(LocalGraph.cycle(5).m == 5)
    assert(LocalGraph.path(5).m == 4)
    val s = LocalGraph.star(5)
    assert(s.m == 4 && s.degree(0) == 4 && s.degree(1) == 1)
  }

  test("induced subgraph remaps and keeps internal edges only") {
    val g = TestGraphs.twoCliquesBridged(4, 3) // bridge edge is (0, 4)
    val (sub, orig) = g.inducedOn(Array(0, 1, 2, 4))
    assert(orig.toSeq == Seq(0, 1, 2, 4))
    assert(sub.n == 4)
    assert(sub.m == 4) // triangle 0-1-2 plus the bridge 0-4
    assert(sub.hasEdge(0, 1) && sub.hasEdge(1, 2) && sub.hasEdge(0, 2))
    assert(sub.degree(3) == 1 && sub.hasEdge(0, 3)) // orig 4 keeps only the bridge
    // edges to dropped vertices (3, 5, 6) are gone
    assert(!sub.hasEdge(1, 3) && !sub.hasEdge(2, 3))
  }

  test("components of a disconnected graph") {
    val g = LocalGraph.fromEdges(6, Seq((0, 1), (1, 2), (4, 5)))
    val comps = g.components().map(_.toSeq).toSeq
    assert(comps.contains(Seq(0, 1, 2)))
    assert(comps.contains(Seq(3)))
    assert(comps.contains(Seq(4, 5)))
  }

  test("componentsWithin respects the mask") {
    val g = LocalGraph.path(5) // 0-1-2-3-4
    val mask = Array(true, true, false, true, true)
    val comps = g.componentsWithin(mask).map(_.toSeq).toSeq
    assert(comps == Seq(Seq(0, 1), Seq(3, 4)))
  }

  test("isConnected") {
    val g = TestGraphs.twoCliquesBridged(4, 4)
    assert(g.isConnected((0 until 8).toArray))
    assert(g.isConnected(Array(0, 1, 2, 3)))
    assert(!g.isConnected(Array(1, 2, 5, 6))) // bridge is 0-4
    assert(!g.isConnected(Array.empty[Int]))
  }

  test("degeneracy order of a clique gives core number n-1") {
    val g = LocalGraph.complete(5)
    val (_, _, core) = g.degeneracyOrder()
    assert(core.toSeq == Seq.fill(5)(4))
  }

  test("degeneracy order of a tree gives core number 1") {
    val g = LocalGraph.path(8)
    val (_, _, core) = g.degeneracyOrder()
    assert(core.forall(_ == 1))
  }

  test("degeneracy rank is a permutation and core numbers match brute peel") {
    for (seed <- 1 to 5) {
      val g = TestGraphs.random(15, 0.3, seed)
      val (order, rank, core) = g.degeneracyOrder()
      assert(order.sorted.toSeq == (0 until 15))
      assert(order.map(rank).toSeq == (0 until 15))
      // brute-force edge core numbers
      val brute = bruteEdgeCores(g)
      assert(core.toSeq == brute.toSeq, s"seed=$seed")
    }
  }

  private def bruteEdgeCores(g: LocalGraph): Array[Int] = {
    val alive = Array.fill(g.n)(true)
    val core = new Array[Int](g.n)
    var curMax = 0
    for (_ <- 0 until g.n) {
      def deg(v: Int) = g.neighbors(v).count(alive(_))
      val cand = (0 until g.n).filter(alive(_))
      val v = cand.minBy(w => (deg(w), w))
      curMax = math.max(curMax, deg(v))
      core(v) = curMax
      alive(v) = false
    }
    core
  }
}
