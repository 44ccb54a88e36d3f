package ippvbench

import java.lang.management.ManagementFactory
import repro.baseline.Baselines
import repro.clique.{CliqueCore, CliqueEnum}
import repro.core.{IPPV, Prune, StableGroups, TentativeGD}
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Exact top-k LhCDS benchmark.
  *
  * A query is `CliqueEnum.enumerate(g, h)` followed by top-k (k = 5) on one
  * graph; a pass runs the workload's queries one after another on this
  * thread. After a fixed warm-up, passes repeat for about `--seconds`
  * (see [[timedPasses]]); `pass_s` is their median. Outputs are checked after the
  * timed passes by [[Checker]]. With `--trace 1` every other pass runs
  * through `IPPV.topKWithStats` with a wrapped Frank–Wolfe hook, and the
  * layer probes run after the passes; the last stdout line is the JSON
  * result.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  */
object Main {

  val K = 5

  /** @param flowOnly     run `Baselines.flowTopK` (the LTDS configuration)
    *                     instead of `IPPV.topK`
    * @param replicas     graphs per shape in a pass
    * @param warmupShapes warm-up queries run on the first this many
    *                     replica-0 graphs ...
    * @param warmupRounds ... this many times
    */
  final case class Workload(
      name: String,
      h: Int,
      flowOnly: Boolean,
      replicas: Int,
      warmupShapes: Int,
      warmupRounds: Int,
  )

  val workloads: Seq[Workload] = Seq(
    Workload("ippv-h2", 2, flowOnly = false, replicas = 1, warmupShapes = 3, warmupRounds = 2),
    Workload("ippv-h3", 3, flowOnly = false, replicas = 6, warmupShapes = 8, warmupRounds = 1),
    Workload("ltds-h3", 3, flowOnly = true, replicas = 1, warmupShapes = 3, warmupRounds = 1),
  )

  /** The configuration `Baselines.flowTopK` runs `IPPV.topKWithStats` with. */
  val flowOnlyConfig: IPPV.Config = IPPV.Config(useCP = false, fastVerify = false)

  type Answer = Seq[(Seq[Int], Long, Long)]

  def answer(out: Seq[IPPV.Lhcds]): Answer = out.map(s => (s.vertices.toSeq, s.num, s.den))

  /** Per-pass sums over the queries of a traced pass. */
  final class PassTrace(capture: Boolean) {
    val fw = new FwTrace(IPPV.Config().fwRunner, capture)
    var enumerateNs = 0L
    var instances = 0L
    var found = 0L
    val stats = new IPPV.Stats

    def add(st: IPPV.Stats, emitted: Int): Unit = {
      stats.proposeRounds += st.proposeRounds
      stats.fwIterations += st.fwIterations
      stats.isDensestCalls += st.isDensestCalls
      stats.verifyCalls += st.verifyCalls
      stats.cheapVerifyHits += st.cheapVerifyHits
      stats.exactFallbacks += st.exactFallbacks
      stats.pruneRemoved += st.pruneRemoved
      found += emitted
    }

    /** The counts that must repeat exactly between passes and runs. */
    def counts: Seq[Long] = Seq(
      stats.proposeRounds, stats.fwIterations, stats.isDensestCalls, stats.verifyCalls,
      stats.cheapVerifyHits, stats.exactFallbacks, stats.pruneRemoved, found, instances,
      fw.calls, fw.instanceIters)
  }

  final case class Pass(
      ns: Long,
      allocBytes: Long,
      gcCount: Long,
      gcMs: Long,
      outputs: Array[Either[String, Seq[IPPV.Lhcds]]],
      trace: Option[PassTrace],
  )

  def query(w: Workload, g: LocalGraph): Seq[IPPV.Lhcds] = {
    val inst = CliqueEnum.enumerate(g, w.h)
    if (w.flowOnly) Baselines.flowTopK(g, inst, K) else IPPV.topK(g, inst, K)
  }

  def tracedQuery(w: Workload, g: LocalGraph, tr: PassTrace): Seq[IPPV.Lhcds] = {
    val t0 = System.nanoTime()
    val inst = CliqueEnum.enumerate(g, w.h)
    tr.enumerateNs += System.nanoTime() - t0
    tr.instances += inst.size
    val base = if (w.flowOnly) flowOnlyConfig else IPPV.Config()
    val (out, st) = IPPV.topKWithStats(g, inst, K, base.copy(fwRunner = tr.fw.runner))
    tr.add(st, out.length)
    out
  }

  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def allocatedBytes(): Long =
    threadBean.getThreadAllocatedBytes(Thread.currentThread().getId)

  private def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount.max(0L)).sum, beans.map(_.getCollectionTime.max(0L)).sum)
  }

  def runPass(w: Workload, graphs: IndexedSeq[Inputs.Graph], trace: Option[PassTrace]): Pass = {
    val outputs = new Array[Either[String, Seq[IPPV.Lhcds]]](graphs.length)
    val (gc0, gcMs0) = gcTotals()
    val a0 = allocatedBytes()
    val t0 = System.nanoTime()
    var i = 0
    while (i < graphs.length) {
      val g = graphs(i).g
      outputs(i) =
        try Right(trace.fold(query(w, g))(tracedQuery(w, g, _)))
        catch { case NonFatal(e) => Left(e.toString) }
      i += 1
    }
    val ns = System.nanoTime() - t0
    val alloc = allocatedBytes() - a0
    val (gc1, gcMs1) = gcTotals()
    Pass(ns, alloc, gc1 - gc0, gcMs1 - gcMs0, outputs, trace)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  final case class Options(workload: Workload, seed: Long, seconds: Double, trace: Boolean, launchNs: Long)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val name = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required"))
    val w = workloads.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${workloads.map(_.name).mkString(", ")}"))
    val trace = kv.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    Options(w, kv.getOrElse("seed", "0").toLong, kv.getOrElse("seconds", "10").toDouble, trace,
            kv.get("launch-ns").map(_.toLong).getOrElse(0L))
  }

  /** Runs timed passes for about `seconds` (at least one pass, and in
    * traced runs at least one traced pass). It starts another pass only if
    * that should end within half a pass of the deadline, so a run measures
    * about `seconds` whatever a pass costs. Traced runs alternate untraced
    * and traced passes; the first traced pass captures the Frank–Wolfe
    * subproblems.
    */
  def timedPasses(w: Workload, graphs: IndexedSeq[Inputs.Graph], seconds: Double, trace: Boolean): Seq[Pass] = {
    val passes = mutable.ArrayBuffer.empty[Pass]
    def traced = passes.count(_.trace.nonEmpty)
    val start = System.nanoTime()
    def another = (System.nanoTime() - start + passes.last.ns / 2) / 1e9 < seconds
    while (passes.isEmpty || another || (trace && traced == 0)) {
      val tr = if (trace && passes.length - traced > traced) Some(new PassTrace(traced == 0)) else None
      passes += runPass(w, graphs, tr)
    }
    passes.toSeq
  }

  /** Checks every query of every pass, adding the checker's timings and
    * network sizes to `timers`/`flow`; with `probes` it also runs the
    * core-number and pruning probes. Returns the number of failed
    * (pass, query) pairs and |Ψ_h| per graph.
    */
  def checkAll(
      w: Workload,
      graphs: IndexedSeq[Inputs.Graph],
      passes: Seq[Pass],
      probes: Boolean,
      timers: Timers,
      flow: Checker.FlowSize,
      report: mutable.Buffer[String],
  ): (Long, Array[Int]) = {
    var failed = 0L
    val instances = new Array[Int](graphs.length)
    for ((x, i) <- graphs.zipWithIndex) {
      val inst = CliqueEnum.enumerate(x.g, w.h)
      instances(i) = inst.size
      val cores = if (probes) Some(timers.time("clique.core_s")(CliqueCore.coreNumbers(inst))) else None
      // ippv-h3 ≡ ltds-h3: the flow-only answer must equal IPPV's
      val crossCheck: Option[String] =
        if (!w.flowOnly) None
        else
          try {
            val ippv = IPPV.topK(x.g, inst, K)
            passes.head.outputs(i) match {
              case Right(out) if answer(out) != answer(ippv) =>
                Some(s"ltds-h3 and ippv-h3 answers differ: ${out.mkString(", ")} vs ${ippv.mkString(", ")}")
              case _ => None
            }
          } catch { case NonFatal(e) => Some(s"ippv-h3 cross-check threw $e") }
      // every pass must give the first pass's answer; each distinct answer
      // is checked once
      val first = passes.head.outputs(i).map(answer)
      val verdicts = mutable.Map.empty[Either[String, Answer], Option[String]]
      for (p <- passes) {
        val key = p.outputs(i).map(answer)
        val verdict =
          if (key != first) Some("answer differs from the first pass's")
          else verdicts.getOrElseUpdate(key, p.outputs(i) match {
            case Left(err) => Some(s"query threw $err")
            case Right(out) =>
              try { Checker.check(x.g, inst, K, out, timers, flow, cores); crossCheck }
              catch { case NonFatal(e) => Some(e.toString) }
          })
        verdict.foreach { why =>
          failed += 1
          report += s"FAILED ${x.label} (graph seed ${x.graphSeed}, relabel seed ${x.relabelSeed}): $why"
        }
      }
      // Prune on each root component with IPPV's initial bounds
      // (InitializeBd); flow-only IPPV never prunes
      for (c <- cores if !w.flowOnly; comp <- x.g.componentsWithin(inst.degrees.map(_ > 0))) {
        val (subG, orig) = x.g.inducedOn(comp)
        val subInst = inst.remapTo(comp)
        val ub = orig.map(c(_).toDouble + 1e-12)
        val lb = orig.map(c(_).toDouble / w.h - 1e-9)
        timers.time("prune.s")(Prune.run(subG, subInst, ub, lb))
      }
    }
    (failed, instances)
  }

  /** The per-layer metrics of a traced run. */
  def layerMetrics(
      w: Workload,
      passes: Seq[Pass],
      timers: Timers,
      flow: Checker.FlowSize,
      calibS: Double,
  ): Seq[(String, (Double, String))] = {
    val untraced = passes.filter(_.trace.isEmpty)
    val traced = passes.filter(_.trace.nonEmpty)
    val first = traced.head.trace.get
    val st = first.stats
    def layerS(f: PassTrace => Long) = median(traced.map(p => f(p.trace.get) / 1e9))
    def frac(a: Long, b: Long) = if (b == 0) 0.0 else a.toDouble / b

    // replay the captured Frank–Wolfe subproblems through TentativeGD and
    // StableGroups, as IPPV does after each Frank–Wolfe call
    for ((sub, iters) <- first.fw.captured) {
      val state = IPPV.Config().fwRunner(sub, iters)
      timers.time("tentativegd.s")(TentativeGD.run(state))
      timers.time("stablegroups.s")(StableGroups.derive(state))
    }

    val m = mutable.LinkedHashMap.empty[String, (Double, String)]
    for ((n, v) <- Seq(
           "ippv.propose_rounds" -> st.proposeRounds,
           "ippv.fw_iterations" -> st.fwIterations,
           "ippv.isdensest_calls" -> st.isDensestCalls,
           "ippv.verify_calls" -> st.verifyCalls,
           "ippv.exact_splits" -> st.exactFallbacks,
           "ippv.pruned" -> st.pruneRemoved,
           "ippv.found" -> first.found,
           "ippv.cheap_verify_hits" -> st.cheapVerifyHits))
      m(n) = (v.toDouble, "count")
    m("ippv.isdensest_pass_frac") = (frac(st.verifyCalls, st.isDensestCalls), "frac")
    m("ippv.emit_frac") = (frac(first.found, st.verifyCalls), "frac")
    m("clique.enumerate_s") = (layerS(_.enumerateNs), "s")
    m("clique.instances") = (first.instances.toDouble, "count")
    m("clique.core_s") = (timers.seconds("clique.core_s"), "s")
    m("kclistpp.calls") = (first.fw.calls.toDouble, "count")
    m("kclistpp.s") = (layerS(_.fw.nanos), "s")
    m("kclistpp.instance_iters") = (first.fw.instanceIters.toDouble, "count")
    m("kclistpp.ns_per_instance_iter") =
      (if (first.fw.instanceIters == 0) 0.0 else layerS(_.fw.nanos) * 1e9 / first.fw.instanceIters, "ns")
    for (n <- Seq("tentativegd.s", "stablegroups.s", "prune.s", "instanceset.remap_s",
                  "instanceset.count_s", "verify.isdensest_s", "verify.fast_s", "verify.basic_s",
                  "verify.exact_densest_s"))
      m(n) = (timers.seconds(n), "s")
    m("flow.nodes") = (flow.nodes.toDouble, "count")
    m("flow.arcs") = (flow.arcs.toDouble, "count")
    m("jvm.gc_s") = (untraced.map(_.gcMs).sum / 1e3 / untraced.length, "s")
    m("jvm.gc_count") = (untraced.map(_.gcCount).sum.toDouble / untraced.length, "count")
    m("host.calib_mem_s") = (calibS, "s")
    m("trace_overhead_frac") =
      (median(traced.map(_.ns / 1e9)) / median(untraced.map(_.ns / 1e9)) - 1, "frac")
    m.toSeq
  }

  def main(args: Array[String]): Unit = {
    val opts =
      try parse(args)
      catch {
        case e: IllegalArgumentException =>
          System.err.println(e.getMessage)
          sys.exit(2)
      }
    val w = opts.workload
    // JVM start: from the launcher's clock when it passes one, else the
    // JVM's own uptime at entry to main.
    val jvmStartS =
      if (opts.launchNs > 0) {
        val now = java.time.Instant.now()
        (now.getEpochSecond * 1000000000L + now.getNano - opts.launchNs) / 1e9
      } else ManagementFactory.getRuntimeMXBean.getUptime / 1e3

    // set-up: graph generation (three times, median), then warm-up
    var graphs: IndexedSeq[Inputs.Graph] = IndexedSeq.empty
    val genS = median((1 to 3).map { _ =>
      val t0 = System.nanoTime()
      graphs = Inputs.generate(opts.seed, w.replicas)
      (System.nanoTime() - t0) / 1e9
    })
    val tw = System.nanoTime()
    for (_ <- 1 to w.warmupRounds; x <- graphs.take(w.warmupShapes)) query(w, x.g)
    val warmupS = (System.nanoTime() - tw) / 1e9

    val calibBefore = Calibration.memLoopSeconds()
    val passes = timedPasses(w, graphs, opts.seconds, opts.trace)
    val calibAfter = Calibration.memLoopSeconds()

    val report = mutable.ArrayBuffer(
      s"workload ${w.name} seed ${opts.seed} h=${w.h} k=$K replicas=${w.replicas} trace=${if (opts.trace) 1 else 0}")
    val timers = new Timers
    val flow = new Checker.FlowSize
    val tc = System.nanoTime()
    val (failed, instances) = checkAll(w, graphs, passes, opts.trace, timers, flow, report)
    val checkS = (System.nanoTime() - tc) / 1e9
    val attempted = passes.length.toLong * graphs.length
    val untraced = passes.filter(_.trace.isEmpty)
    val traced = passes.filter(_.trace.nonEmpty)

    val metrics =
      if (opts.trace) layerMetrics(w, passes, timers, flow, (calibBefore + calibAfter) / 2)
      else Seq(
        "pass_s" -> (median(untraced.map(_.ns / 1e9)), "s"),
        "setup_s" -> (jvmStartS + genS + warmupS, "s"),
        "alloc_mb" -> (median(untraced.map(_.allocBytes / 1e6)), "MB"),
        "ok_frac" -> ((attempted - failed).toDouble / attempted, "frac"),
      )

    for ((x, i) <- graphs.zipWithIndex)
      report += s"graph ${x.label} graph_seed=${x.graphSeed} relabel_seed=${x.relabelSeed} " +
        s"V=${x.g.n} E=${x.g.m} Psi_${w.h}=${instances(i)}"
    report += f"setup: jvm_start=$jvmStartS%.3f s, generation=$genS%.3f s (median of 3), warm-up=$warmupS%.3f s"
    report += s"timed passes: ${untraced.length} untraced, ${traced.length} traced; pass times (s): " +
      passes.map(p => f"${p.ns / 1e9}%.3f${if (p.trace.nonEmpty) " (traced)" else ""}").mkString(" ")
    if (traced.exists(_.trace.get.counts != traced.head.trace.get.counts))
      report += "WARNING: IPPV counts differ between traced passes"
    report += f"check: $checkS%.3f s"
    report += f"host memory loop: before=$calibBefore%.3f s, after=$calibAfter%.3f s"
    report.foreach(println)
    println(Json.result(failed == 0, attempted, failed, metrics))
  }
}
