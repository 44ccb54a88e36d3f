package repro.graph

import scala.collection.mutable

/** Immutable undirected graph in CSR (compressed sparse row) form.
  *
  * Vertices are `0 until n`. Adjacency lists are sorted ascending, which
  * makes `hasEdge` a binary search and set-intersections mergeable. Self
  * loops and duplicate edges are removed at construction.
  *
  * This is the substrate every local kernel of the reproduction runs on:
  * clique enumeration, core peeling, flow-network construction, and the
  * quality measures of the evaluation tables.
  */
final class LocalGraph(val n: Int, val offsets: Array[Int], val adj: Array[Int])
    extends Serializable {

  /** Number of undirected edges. */
  val m: Int = adj.length / 2

  /** Degree of vertex `v`. */
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Apply `f` to every neighbor of `v`. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    while (i < offsets(v + 1)) { f(adj(i)); i += 1 }
  }

  /** Neighbors of `v` as a fresh array (sorted ascending). */
  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  /** Whether the undirected edge {u, v} exists (binary search). */
  def hasEdge(u: Int, v: Int): Boolean = {
    var lo = offsets(u); var hi = offsets(u + 1) - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val x = adj(mid)
      if (x == v) return true
      if (x < v) lo = mid + 1 else hi = mid - 1
    }
    false
  }

  /** All undirected edges with u < v. */
  def edges: IndexedSeq[(Int, Int)] = {
    val b = IndexedSeq.newBuilder[(Int, Int)]
    var u = 0
    while (u < n) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = adj(i)
        if (u < v) b += ((u, v))
        i += 1
      }
      u += 1
    }
    b.result()
  }

  /** Induced subgraph on the vertices where `mask(v)`; returns the
    * remapped graph plus `origIds(newId) = oldId`.
    */
  def induced(mask: Array[Boolean]): (LocalGraph, Array[Int]) = {
    val origIds = (0 until n).filter(mask(_)).toArray
    val newId = Array.fill(n)(-1)
    var i = 0
    while (i < origIds.length) { newId(origIds(i)) = i; i += 1 }
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    for (u <- origIds; if true) {
      foreachNeighbor(u) { v => if (u < v && mask(v)) es += ((newId(u), newId(v))) }
    }
    (LocalGraph.fromEdges(origIds.length, es), origIds)
  }

  /** Induced subgraph on an explicit vertex subset (original ids). */
  def inducedOn(vs: Array[Int]): (LocalGraph, Array[Int]) = {
    val mask = Array.fill(n)(false)
    vs.foreach(mask(_) = true)
    induced(mask)
  }

  /** Connected components as arrays of vertex ids (each sorted ascending). */
  def components(): Array[Array[Int]] =
    componentsWithin(Array.fill(n)(true))

  /** Connected components of the subgraph induced by `mask`, in original
    * vertex ids. Vertices with `!mask(v)` are ignored.
    */
  def componentsWithin(mask: Array[Boolean]): Array[Array[Int]] = {
    val seen = Array.fill(n)(false)
    val out = mutable.ArrayBuffer.empty[Array[Int]]
    val queue = new mutable.ArrayDeque[Int]()
    var s = 0
    while (s < n) {
      if (mask(s) && !seen(s)) {
        val comp = mutable.ArrayBuffer.empty[Int]
        seen(s) = true; queue.append(s)
        while (queue.nonEmpty) {
          val v = queue.removeHead()
          comp += v
          foreachNeighbor(v) { w =>
            if (mask(w) && !seen(w)) { seen(w) = true; queue.append(w) }
          }
        }
        out += comp.toArray.sorted
      }
      s += 1
    }
    out.toArray
  }

  /** Is the subgraph induced by `vs` connected (and nonempty)? */
  def isConnected(vs: Array[Int]): Boolean = {
    if (vs.isEmpty) return false
    val mask = Array.fill(n)(false)
    vs.foreach(mask(_) = true)
    componentsWithin(mask).length == 1
  }

  /** Degeneracy ordering: repeatedly remove a minimum-degree vertex.
    *
    * Returns `(order, rank, coreNum)` where `order(i)` is the i-th removed
    * vertex, `rank(v)` its position, and `coreNum(v)` the (edge) core
    * number of `v`. Used to orient edges for kClist-style clique listing.
    */
  def degeneracyOrder(): (Array[Int], Array[Int], Array[Int]) = {
    val deg = Array.tabulate(n)(degree)
    val maxDeg = if (n == 0) 0 else deg.max
    // bucket queue over degrees
    val buckets = Array.fill(maxDeg + 1)(mutable.ArrayDeque.empty[Int])
    for (v <- 0 until n) buckets(deg(v)).append(v)
    val removed = Array.fill(n)(false)
    val order = new Array[Int](n)
    val rank = new Array[Int](n)
    val coreNum = new Array[Int](n)
    var k = 0
    var pos = 0
    var d = 0
    while (pos < n) {
      while (d <= maxDeg && buckets(d).isEmpty) d += 1
      if (d > maxDeg) { pos = n } // defensive: nothing left
      else {
        val v = buckets(d).removeHead()
        if (!removed(v) && deg(v) == d) {
          removed(v) = true
          k = math.max(k, d)
          coreNum(v) = k
          order(pos) = v; rank(v) = pos; pos += 1
          foreachNeighbor(v) { w =>
            if (!removed(w)) {
              deg(w) -= 1
              buckets(deg(w)).append(w)
              if (deg(w) < d) d = deg(w)
            }
          }
        }
      }
    }
    (order, rank, coreNum)
  }
}

object LocalGraph {

  /** Build from an edge list; out-of-range endpoints rejected (self loops
    * included), self loops dropped, duplicates merged, both (u,v) and
    * (v,u) accepted.
    */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): LocalGraph = {
    val sets = Array.fill(n)(mutable.SortedSet.empty[Int])
    for ((u, v) <- edges) {
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      if (u != v) {
        sets(u) += v
        sets(v) += u
      }
    }
    val offsets = new Array[Int](n + 1)
    var total = 0
    for (v <- 0 until n) { offsets(v) = total; total += sets(v).size }
    offsets(n) = total
    val adj = new Array[Int](total)
    var i = 0
    for (v <- 0 until n; w <- sets(v)) { adj(i) = w; i += 1 }
    new LocalGraph(n, offsets, adj)
  }

  /** Complete graph on n vertices. */
  def complete(n: Int): LocalGraph =
    fromEdges(n, for (u <- 0 until n; v <- u + 1 until n) yield (u, v))

  /** Cycle graph on n vertices. */
  def cycle(n: Int): LocalGraph =
    fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))

  /** Path graph on n vertices. */
  def path(n: Int): LocalGraph =
    fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))

  /** Star graph: center 0, leaves 1..n-1. */
  def star(n: Int): LocalGraph =
    fromEdges(n, (1 until n).map(i => (0, i)))
}
