package ippvbench

import repro.core.{InstanceSet, KClistPP}
import scala.collection.mutable

/** Named nanosecond accumulators for the per-layer probes. */
final class Timers {
  private val nanos = mutable.LinkedHashMap.empty[String, Long]

  def time[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    try f finally nanos(name) = nanos.getOrElse(name, 0L) + System.nanoTime() - t0
  }

  def seconds(name: String): Double = nanos.getOrElse(name, 0L) / 1e9
}

/** Wraps IPPV's Frank–Wolfe hook (`IPPV.Config.fwRunner`): counts and
  * times every call, and keeps each call's sub-instance set and iteration
  * count so that TentativeGD and StableGroups can be replayed on the same
  * subproblems after the timed passes.
  */
final class FwTrace(inner: (InstanceSet, Int) => KClistPP.CPState, capture: Boolean) {
  var calls = 0L
  var nanos = 0L
  var instanceIters = 0L
  val captured = mutable.ArrayBuffer.empty[(InstanceSet, Int)]

  val runner: (InstanceSet, Int) => KClistPP.CPState = (sub, iters) => {
    val t0 = System.nanoTime()
    val state = inner(sub, iters)
    nanos += System.nanoTime() - t0
    calls += 1
    instanceIters += sub.size.toLong * iters
    if (capture) captured += ((sub, iters))
    state
  }
}
