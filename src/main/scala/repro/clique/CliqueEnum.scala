package repro.clique

import repro.core.InstanceSet
import repro.graph.LocalGraph
import scala.collection.mutable

/** h-clique enumeration and counting, kClist-style (Danisch et al.).
  *
  * Orients edges along a degeneracy ordering so each clique is emitted
  * exactly once, then recursively intersects out-neighborhoods. This is
  * the local substrate behind |Ψ_h| statistics, clique degrees, and the
  * instance sets the whole IPPV pipeline runs on. Complexity is
  * O(m · (d/2)^(h-2)) for degeneracy d.
  */
object CliqueEnum {

  /** All h-cliques of `g` as an [[InstanceSet]]. Requires h >= 1. */
  def enumerate(g: LocalGraph, h: Int): InstanceSet = {
    require(h >= 1, "h must be >= 1")
    val out = mutable.ArrayBuffer.empty[Array[Int]]
    if (h == 1) {
      var v = 0
      while (v < g.n) { out += Array(v); v += 1 }
    } else
      list(g, h) { (stack, cand) =>
        var i = 0
        while (i < cand.length) {
          stack(h - 1) = cand(i)
          out += java.util.Arrays.copyOf(stack, h)
          i += 1
        }
      }
    InstanceSet(g.n, h, out)
  }

  /** Count h-cliques without materializing them. */
  def count(g: LocalGraph, h: Int): Long = {
    require(h >= 1, "h must be >= 1")
    if (h == 1) return g.n.toLong
    var total = 0L
    list(g, h)((_, cand) => total += cand.length)
    total
  }

  /** The kClist recursion, for h >= 2. Calls `leaf(stack, cand)` once per
    * oriented (h−1)-clique `stack(0 until h-1)`, with `cand` the
    * out-neighbours common to all its vertices: each vertex of `cand`
    * completes one h-clique. `stack` is reused, so `leaf` must copy it.
    */
  private def list(g: LocalGraph, h: Int)(leaf: (Array[Int], Array[Int]) => Unit): Unit = {
    val (_, rank, _) = g.degeneracyOrder()
    // out-neighbors in rank order (sorted by vertex id for intersections)
    val outAdj = Array.tabulate(g.n) { v =>
      g.neighbors(v).filter(w => rank(w) > rank(v))
    }
    val stack = new Array[Int](h)

    def intersect(a: Array[Int], v: Int): Array[Int] = {
      // a ∩ outAdj(v); both sorted ascending
      val b = outAdj(v)
      val buf = new mutable.ArrayBuffer[Int](math.min(a.length, b.length))
      var i = 0; var j = 0
      while (i < a.length && j < b.length) {
        if (a(i) == b(j)) { buf += a(i); i += 1; j += 1 }
        else if (a(i) < b(j)) i += 1
        else j += 1
      }
      buf.toArray
    }

    def rec(depth: Int, cand: Array[Int]): Unit =
      if (depth == h - 1) leaf(stack, cand)
      else {
        var i = 0
        while (i < cand.length) {
          val v = cand(i)
          stack(depth) = v
          rec(depth + 1, intersect(cand, v))
          i += 1
        }
      }

    var v = 0
    while (v < g.n) { stack(0) = v; rec(1, outAdj(v)); v += 1 }
  }

  /** Brute-force h-clique enumeration by subset check — test oracle only. */
  def bruteForce(g: LocalGraph, h: Int): InstanceSet = {
    val out = mutable.ArrayBuffer.empty[Array[Int]]
    val combo = new Array[Int](h)
    def rec(start: Int, depth: Int): Unit = {
      if (depth == h) { out += java.util.Arrays.copyOf(combo, h); return }
      var v = start
      while (v < g.n) {
        var ok = true
        var j = 0
        while (ok && j < depth) { ok = g.hasEdge(combo(j), v); j += 1 }
        if (ok) { combo(depth) = v; rec(v + 1, depth + 1) }
        v += 1
      }
    }
    rec(0, 0)
    InstanceSet(g.n, h, out)
  }
}
