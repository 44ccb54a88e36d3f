package ippvbench

import org.scalatest.funsuite.AnyFunSuite
import repro.SynthGraphs
import repro.clique.CliqueEnum

class BenchmarkSpec extends AnyFunSuite {

  test("seed 0, replica 0 rebuilds SynthGraphs.benchmarkSuite() exactly") {
    val suite = SynthGraphs.benchmarkSuite()
    val gen = Inputs.generate(0, 1)
    assert(gen.map(_.label) == suite.map(_.abbr + "#0"))
    for ((x, ng) <- gen.zip(suite)) {
      assert(x.g.n == ng.graph.n, x.label)
      assert(x.g.offsets.sameElements(ng.graph.offsets), x.label)
      assert(x.g.adj.sameElements(ng.graph.adj), x.label)
    }
  }

  test("graphs depend on the seed and the replica, and repeat for the same seed") {
    def edges(seed: Long, replicas: Int) = Inputs.generate(seed, replicas).map(_.g.adj.toSeq)
    assert(edges(7, 2) == edges(7, 2))
    assert(edges(7, 1) != edges(8, 1))
    val two = edges(7, 2)
    assert(two.take(8) != two.drop(8))
  }

  // The counts a traced pass and the checker report, for the first three
  // shapes; they must be identical whenever the same seed is run again.
  private def counts(w: Main.Workload, seed: Long): Seq[Long] = {
    val graphs = Inputs.generate(seed, 1).take(3)
    val pass = Main.runPass(w, graphs, Some(new Main.PassTrace(capture = false)))
    val flow = new Checker.FlowSize
    for ((x, out) <- graphs.zip(pass.outputs)) {
      val inst = CliqueEnum.enumerate(x.g, w.h)
      Checker.check(x.g, inst, Main.K, out.toOption.get, new Timers, flow, cores = None)
    }
    pass.trace.get.counts ++ Seq(flow.nodes, flow.arcs)
  }

  for (w <- Main.workloads)
    test(s"${w.name}: IPPV, clique, Frank–Wolfe and flow counts repeat exactly") {
      val a = counts(w, 3)
      assert(a == counts(w, 3))
      assert(a.exists(_ > 0))
    }

  test("ltds-h3 runs no Frank–Wolfe, no pruning") {
    val w = Main.workloads.find(_.name == "ltds-h3").get
    val pass = Main.runPass(w, Inputs.generate(3, 1).take(3), Some(new Main.PassTrace(capture = true)))
    val tr = pass.trace.get
    assert(tr.fw.calls == 0 && tr.fw.captured.isEmpty)
    assert(tr.stats.proposeRounds == 0 && tr.stats.pruneRemoved == 0)
    assert(tr.stats.exactFallbacks > 0)
  }
}
