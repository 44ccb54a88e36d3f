package ippvbench

import repro.SynthGraphs
import repro.graph.LocalGraph

/** Seeded benchmark graphs on the eight `SynthGraphs.benchmarkSuite()`
  * shapes.
  *
  * Replica r of a shape is generated by `SynthGraphs.withCommunities` from a
  * graph seed that depends on the shape and r only: replica 0 uses the
  * shape's own seed (11 … 37), so it is the `benchmarkSuite()` graph, and
  * replica r > 0 uses a SplitMix64 hash of (shape, r). The workload seed
  * then renames the vertices of every graph, shuffling the ids inside each
  * block of [[block]] consecutive ids by a permutation drawn from (seed,
  * shape, r). Seed 0 keeps the generated ids, so seed 0 and replica 0
  * rebuild `benchmarkSuite()` edge for edge.
  *
  * Different seeds thus give different inputs of the same structure: the
  * ids decide the clique orientation, the instance order, the tie-breaks
  * in IPPV's candidate queue and the order of flow arcs. Shuffling only inside
  * small blocks keeps the generator's id locality (hubs low, planted
  * communities high); a full random relabelling destroys it and made
  * passes about 40 % slower. Fresh structures per seed would move the work
  * of a pass by more than the timing noise the benchmark has to resolve
  * (README.md gives the numbers).
  */
object Inputs {

  final case class Shape(abbr: String, n: Int, avgDeg: Double, comms: Seq[(Int, Double)], seed: Long)

  /** The parameters of `SynthGraphs.benchmarkSuite()`, in its order. */
  val shapes: Seq[Shape] = Seq(
    Shape("SYN-HA", 1200, 6.0, Seq((22, 0.9), (20, 0.85), (18, 0.9), (16, 0.95), (15, 0.95)), 11),
    Shape("SYN-GQ", 2600, 3.5, Seq((20, 0.95), (18, 0.9), (16, 0.95), (15, 0.9), (14, 1.0)), 13),
    Shape("SYN-PP", 3000, 7.0, Seq((24, 0.85), (22, 0.85), (20, 0.9), (18, 0.9), (16, 0.95)), 17),
    Shape("SYN-PC", 7000, 4.0, Seq((20, 0.9), (18, 0.9), (16, 0.95), (15, 0.9), (14, 1.0)), 19),
    Shape("SYN-WB", 8000, 2.5, Seq((16, 0.95), (15, 0.95), (14, 1.0), (13, 0.95)), 23),
    Shape("SYN-CM", 11000, 5.0, Seq((22, 0.9), (20, 0.85), (18, 0.9), (16, 0.95), (15, 0.95)), 29),
    Shape("SYN-EP", 13000, 4.5, Seq((21, 0.9), (19, 0.95), (18, 0.9), (17, 0.95), (16, 1.0)), 31),
    Shape("SYN-EN", 18000, 5.0, Seq((24, 0.9), (22, 0.9), (20, 0.95), (18, 0.95), (16, 1.0)), 37),
  )

  /** @param graphSeed   the generator seed
    * @param relabelSeed the seed of the vertex permutation (0: none)
    */
  final case class Graph(label: String, graphSeed: Long, relabelSeed: Long, g: LocalGraph)

  private def splitMix64(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  def graphSeed(shape: Int, replica: Int): Long =
    if (replica == 0) shapes(shape).seed
    else splitMix64(splitMix64(shape.toLong) + replica) & 0xFFFFFFFFL

  def relabelSeed(seed: Long, shape: Int, replica: Int): Long =
    if (seed == 0) 0L
    else (splitMix64(splitMix64(splitMix64(seed) + shape) + replica) & 0xFFFFFFFFL) | 1L

  /** Size of the id blocks inside which [[relabel]] shuffles. */
  val block = 64

  /** `g` with vertex v renamed to perm(v), where perm shuffles the ids
    * inside each block of [[block]] consecutive ids.
    */
  def relabel(g: LocalGraph, seed: Long): LocalGraph = {
    val perm = Array.range(0, g.n)
    val rnd = new java.util.SplittableRandom(seed)
    for (lo <- 0 until g.n by block) {
      var i = math.min(g.n, lo + block) - 1
      while (i > lo) {
        val j = lo + rnd.nextInt(i - lo + 1)
        val t = perm(i); perm(i) = perm(j); perm(j) = t
        i -= 1
      }
    }
    LocalGraph.fromEdges(g.n, g.edges.map { case (u, v) => (perm(u), perm(v)) })
  }

  /** `replicas` graphs of every shape, shape-major within each replica. */
  def generate(seed: Long, replicas: Int): IndexedSeq[Graph] =
    for (r <- 0 until replicas; (s, i) <- shapes.zipWithIndex) yield {
      val gs = graphSeed(i, r)
      val rs = relabelSeed(seed, i, r)
      val g = SynthGraphs.withCommunities(s.n, s.avgDeg, s.comms, gs)
      Graph(s"${s.abbr}#$r", gs, rs, if (rs == 0) g else relabel(g, rs))
    }
}
