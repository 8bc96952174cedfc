package repro.perfbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{D3L, D3LConfig, JoinPaths, LakeIndexes}
import repro.eval.Metrics
import repro.lake.{Generators, Lake}
import Main._

/** The benchmark's workloads. Each takes its seed only through the lake
  * generator and the target order; the program sees only generated inputs.
  */
object Workloads {

  type Workload = (SparkSession, Tracer, Opts) => Outcome

  /** Lake sizes. Every Spark call pays a fixed planning cost of many seconds
    * on top of its data-dependent work, so these lakes are smaller than the
    * paper's: one run must finish set-up and at least one timed operation
    * within the run-time budget of the benchmark.
    */
  val IndexBuildTables = 64
  val OnlineClusters = 4
  val OnlineTablesPerCluster = 12
  /** Entity pool per cluster. A table takes 40–99 rows but at most the pool,
    * so a pool of 60 caps tables at 60 rows: the query's planning cost grows
    * with the lake's size, and the cap narrows how much that size varies
    * between seeds (standard deviation 3.9% of the mean instead of 5.7%).
    */
  val OnlinePoolSize = 60
  /** Queries per run: at least `MinQueries` (one query varies by about 6% on
    * its own, within a run as between runs; a third query would push the
    * benchmark's total run time near its budget), at most `MaxQueries` (the
    * targets the gate ranks).
    */
  val MinQueries = 2
  val MaxQueries = 8
  /** Minimum time each driver-side kernel repeats for in the traced run. */
  val KernelSeconds = 0.25

  val byName: Map[String, Workload] = Map(
    "index-build" -> indexBuild,
    "online-query" -> onlineQuery,
  )

  /** Reference values recorded per (workload, seed): `workload seed key value`
    * lines in `perfbench/expected.tsv`, read from the repository root.
    */
  def reference(workload: String, seed: Long): Map[String, Double] = {
    val f = Paths.get("perfbench", "expected.tsv")
    if (!Files.exists(f)) Map.empty
    else Files.readAllLines(f).asScala.iterator
      .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map(_.split("\\s+"))
      .collect { case Array(w, s, k, v) if w == workload && s == seed.toString => k -> v.toDouble }
      .toMap
  }

  /** Collects the checks of one operation; the operation fails if any does. */
  final class Checks(report: mutable.Buffer[String]) {
    private var ok = true
    def apply(cond: Boolean, what: => String): Unit =
      if (!cond) { ok = false; report += s"CHECK FAILED: $what" }
    def passed: Boolean = ok
  }

  private def matchesReference(check: Checks, ref: Map[String, Double], key: String, v: Double): Unit =
    ref.get(key).foreach(r => check(math.abs(r - v) <= 1e-9 * math.max(1.0, math.abs(r)),
      s"$key = $v, recorded for this seed: $r"))

  /** Blocking, unlike LakeIndexes.unpersistAll, so the next build's storage
    * figure starts from a clean slate.
    */
  private def unpersist(idx: LakeIndexes): Unit =
    Seq(idx.catalog, idx.signatures, idx.buckets, idx.numericProfiles, idx.subjects, idx.tokenEmbeddings)
      .foreach(_.unpersist(blocking = true))

  // ---- index-build -----------------------------------------------------------

  /** Repeated lake-ready builds (D3L.index + JoinPaths.buildGraph) of a dirty
    * scaling lake, unpersisted between builds: the lake maintainer's cost.
    */
  def indexBuild(spark: SparkSession, tracer: Tracer, o: Opts): Outcome = {
    val report = mutable.ArrayBuffer.empty[String]
    val cfg = D3LConfig()
    val lake = Generators.scaling(IndexBuildTables, o.seed)
    val nColumns = lake.tables.map(_.arity).sum
    report += s"choices: workload=index-build lake=scaling tables=${lake.tables.size} " +
      s"columns=$nColumns seed=${o.seed}"

    // Set-up: load the lake into Spark, three times; the median is reported.
    var long: DataFrame = null
    val setups = (1 to 3).map { _ =>
      if (long != null) long.unpersist(blocking = true)
      val (l, s) = seconds(tracer.span("setup")(tracer.span("lake.to_long")(loadLake(spark, lake))))
      long = l
      s
    }

    val ref = reference("index-build", o.seed)
    val before = storageMb(spark)
    val builds = mutable.ArrayBuffer.empty[Double]
    val mems = mutable.ArrayBuffer.empty[Double]
    val counts = mutable.ArrayBuffer.empty[Map[String, Long]]
    var attempted = 0
    var failed = 0
    val t0 = System.nanoTime()
    while (attempted == 0 || (System.nanoTime() - t0) / 1e9 < o.seconds) {
      attempted += 1
      val check = new Checks(report)
      try {
        val ((idx, graph), s) = seconds(tracer.span("op") {
          val idx = tracer.span("core.index")(D3L.index(spark, long, cfg))
          (idx, tracer.span("core.sa_graph")(JoinPaths.buildGraph(spark, idx, cfg)))
        })
        builds += s
        mems += storageMb(spark) - before
        val c = tracer.span("gate")(indexCounts(idx)) + ("edges" -> graph.edgeCount.toLong)
        counts += c
        check(c("attributes") == nColumns, s"catalog has ${c("attributes")} attributes, lake has $nColumns")
        check(c("signatures") > 0 && c("buckets") > 0 && c("edges") > 0, s"empty index structure: $c")
        check(c == counts.head, s"build $attempted differs from build 1: $c vs ${counts.head}")
        Seq("signatures", "buckets", "edges").foreach(k => matchesReference(check, ref, k, c(k).toDouble))
        unpersist(idx)
      } catch {
        case e: Exception => check(false, s"build $attempted threw $e")
      }
      if (!check.passed) failed += 1
    }
    val retained = storageMb(spark) - before
    val kernels = if (tracer.enabled) tracer.span("kernels")(Kernels.run(tracer, lake, KernelSeconds)) else Nil
    val spans = tracer.finish()
    val c = counts.headOption.getOrElse(Map.empty[String, Long]).withDefaultValue(0L)

    report += f"index_build_s: median ${median(builds.toSeq)}%.3f s over ${builds.size} build(s) " +
      s"[${builds.map(b => f"$b%.3f").mkString(", ")}]"
    report += f"index_mem_mb: ${median(mems.toSeq)}%.3f MB  retained_cache_mb: $retained%.3f MB  " +
      f"error_rate: ${failed.toDouble / attempted}%.4f ($failed/$attempted)"
    report += s"index: attributes=${c("attributes")} signatures=${c("signatures")} " +
      s"buckets=${c("buckets")} sa_graph_edges=${c("edges")}"
    report += s"reference: ${Seq("signatures", "buckets", "edges").map(k => s"index-build ${o.seed} $k ${c(k)}").mkString(" | ")}"

    Outcome(attempted, failed,
      endToEnd = Map(
        "setup_s" -> median(setups),
        "op_p50_s" -> median(builds.toSeq),
        "index_kb_per_attr" -> median(mems.toSeq) * 1e3 / nColumns),
      perLayer = kernelMetrics(kernels) ++
        Trace.sparkPerSpan(spans, spans.filter(_.name == "op"), cores) ++ Map(
          "spark.cache_mb" -> retained,
          "lake.to_long.s" -> Trace.medianSeconds(spans, "lake.to_long"),
          "core.index.s" -> Trace.medianSeconds(spans, "core.index"),
          "core.sa_graph.s" -> Trace.medianSeconds(spans, "core.sa_graph"),
          "core.index.signatures" -> c("signatures").toDouble,
          "core.index.buckets" -> c("buckets").toDouble,
          "core.sa_graph.edges" -> c("edges").toDouble,
          "trace.op_s" -> Trace.medianSeconds(spans, "op")),
      report = report.toSeq)
  }

  // ---- online-query ----------------------------------------------------------

  /** One closed-loop client sending seeded D3L.queryTable calls against an
    * index prebuilt on a dirty, numeric-heavy SmallerReal lake: the latency a
    * user sees. Each target's top-k must equal its D3L.queryAll top-k.
    */
  def onlineQuery(spark: SparkSession, tracer: Tracer, o: Opts): Outcome = {
    val report = mutable.ArrayBuffer.empty[String]
    val cfg = D3LConfig()
    val lake = Generators.smallerReal(nClusters = OnlineClusters,
      tablesPerCluster = OnlineTablesPerCluster, poolSize = OnlinePoolSize, seed = o.seed)
    report += s"choices: workload=online-query lake=smaller_real tables=${lake.tables.size} " +
      s"pool=$OnlinePoolSize seed=${o.seed} k=$K min_queries=$MinQueries max_queries=$MaxQueries"

    // Set-up: load the lake and build the index the queries run against.
    val ((idx, memMb), setupS) = seconds(tracer.span("setup") {
      val long = tracer.span("lake.to_long")(loadLake(spark, lake))
      val loaded = storageMb(spark)
      val idx = tracer.span("core.index")(D3L.index(spark, long, cfg))
      (idx, storageMb(spark) - loaded)
    })

    val targets = new scala.util.Random(o.seed).shuffle(lake.tables.map(_.id)).take(MaxQueries)
    val ref = reference("online-query", o.seed)

    // Gate reference, before the timed loop so that it also warms the query
    // path: the batched pipeline ranks every target the loop may send.
    val all = tracer.span("gate")(tracer.span("core.query_all") {
      val res = D3L.queryAll(spark, idx, targets, cfg)
      (res, topK(res.ranking))
    })
    val (p, r) = Metrics.precisionRecallAtK(ranked(all._2), lake.truth, K)
    val gateCheck = new Checks(report)
    matchesReference(gateCheck, ref, "precision_at_k", p)
    matchesReference(gateCheck, ref, "recall_at_k", r)

    val before = storageMb(spark)
    val latencies = mutable.ArrayBuffer.empty[Double]
    val checks = mutable.ArrayBuffer(gateCheck)
    val t0 = System.nanoTime()
    while (latencies.size < MinQueries ||
        ((System.nanoTime() - t0) / 1e9 < o.seconds && latencies.size < targets.size)) {
      val id = targets(latencies.size)
      val check = new Checks(report)
      checks += check
      try {
        val (top, s) = seconds(tracer.span("op")(tracer.span("core.query") {
          topK(D3L.queryTable(spark, idx, lake.table(id), cfg, excludeId = Some(id)).ranking)
        }))
        latencies += s
        val got = top.getOrElse(id, Nil)
        val batch = all._2.getOrElse(id, Nil)
        check(top.keySet == Set(id), s"query $id returned rankings for ${top.keySet}")
        check(got.nonEmpty && got.size <= K && got.distinct.size == got.size && !got.contains(id),
          s"query $id top-$K is malformed: $got")
        check(got == batch, s"query $id: queryTable top-$K $got != queryAll top-$K $batch")
      } catch {
        case e: Exception =>
          latencies += Double.NaN
          check(false, s"query $id threw $e")
      }
    }
    val after = storageMb(spark)
    val failed = checks.count(!_.passed)

    val layers: Map[String, Double] = if (tracer.enabled) queryLayers(spark, tracer, lake, idx, all._1, all._2, cfg) else Map.empty
    val spans = tracer.finish()

    val timed = latencies.filterNot(_.isNaN).toSeq
    report += f"query_p50_s: median ${median(timed)}%.3f s over ${timed.size} quer(ies) " +
      s"[${timed.map(l => f"$l%.3f").mkString(", ")}]"
    report += f"precision_at_k: $p%.6f  recall_at_k: $r%.6f  (k=$K, over the ${targets.size} gate targets)"
    report += f"index_mem_mb: $memMb%.3f MB  retained_cache_mb: ${after - before}%.3f MB  " +
      f"error_rate: ${failed.toDouble / checks.size}%.4f ($failed/${checks.size})"
    report += s"reference: online-query ${o.seed} precision_at_k $p | online-query ${o.seed} recall_at_k $r"

    Outcome(checks.size, failed,
      endToEnd = Map(
        "setup_s" -> setupS,
        "op_p50_s" -> median(timed),
        "index_kb_per_attr" -> memMb * 1e3 / lake.tables.map(_.arity).sum),
      perLayer = layers ++
        Trace.sparkPerSpan(spans, spans.filter(_.name == "op"), cores) ++ Map(
          "spark.cache_mb" -> (after - before),
          "lake.to_long.s" -> Trace.medianSeconds(spans, "lake.to_long"),
          "core.index.s" -> Trace.medianSeconds(spans, "core.index"),
          "core.sa_graph.s" -> Trace.medianSeconds(spans, "core.sa_graph"),
          "core.query.s" -> Trace.medianSeconds(spans, "core.query"),
          "core.query_all.s" -> Trace.medianSeconds(spans, "core.query_all"),
          "trace.op_s" -> Trace.medianSeconds(spans, "op")),
      report = report.toSeq)
  }

  /** Traced-run extras of online-query: sizes of the query's intermediate
    * results, the join-path layer over the SA-join graph, and the kernels.
    */
  private def queryLayers(spark: SparkSession, tracer: Tracer, lake: Lake, idx: LakeIndexes,
                          res: D3L.QueryResult, top: Map[String, Seq[String]],
                          cfg: D3LConfig): Map[String, Double] = {
    import spark.implicits._
    val (pairs, rankedRows, aligns) = tracer.span("gate") {
      (res.tablePairs.as[(String, String)].collect().toSeq, res.ranking.count(),
        res.alignments.select("t_table", "t_col", "s_table", "s_col").as[(String, Int, String, Int)]
          .collect().toSeq.map { case (t, tc, s, sc) => Metrics.Align(t, tc, s, sc) })
    }
    val related = pairs.count { case (t, s) => lake.truth.related(t, s) }
    val idxCounts = tracer.span("gate")(indexCounts(idx))
    val graph = tracer.span("core.sa_graph")(JoinPaths.buildGraph(spark, idx, cfg))
    val guard = pairs.groupBy(_._1).map { case (t, ps) => t -> ps.map(_._2).toSet }
    val calls = top.toSeq.flatMap { case (t, ss) => ss.map(si => (ss.toSet, guard.getOrElse(t, Set.empty[String]), si)) }
    val reached = calls.map { case (tk, g, si) => JoinPaths.reachable(graph, tk, g, si, cfg.maxPathLen).size }
    val reachUs = tracer.span("core.join_paths") {
      var n = 0L
      val t0 = System.nanoTime()
      while (n == 0 || System.nanoTime() - t0 < KernelSeconds * 1e9) {
        calls.foreach { case (tk, g, si) => JoinPaths.reachable(graph, tk, g, si, cfg.maxPathLen) }
        n += math.max(1, calls.size)
      }
      (System.nanoTime() - t0) / 1e3 / n
    }
    val coverage = Metrics.meanCoverage(ranked(top), aligns, lake, K, (t, si) =>
      JoinPaths.reachable(graph, top.getOrElse(t, Nil).toSet, guard.getOrElse(t, Set.empty), si, cfg.maxPathLen))
    val kernels = tracer.span("kernels")(Kernels.run(tracer, lake, KernelSeconds))
    kernelMetrics(kernels) ++ Map(
      "core.index.signatures" -> idxCounts("signatures").toDouble,
      "core.index.buckets" -> idxCounts("buckets").toDouble,
      "core.sa_graph.edges" -> graph.edgeCount.toDouble,
      "core.query.candidate_pairs" -> pairs.size.toDouble,
      "core.query.ranked_rows" -> rankedRows.toDouble,
      "core.query.alignments" -> aligns.size.toDouble,
      "core.query.candidate_precision" -> (if (pairs.isEmpty) 0.0 else related.toDouble / pairs.size),
      "core.join_paths.reachable_us" -> reachUs,
      "core.join_paths.reached" -> (if (reached.isEmpty) 0.0 else reached.sum.toDouble / reached.size),
      "core.join_paths.coverage_j_at_k" -> coverage)
  }

  private def kernelMetrics(ks: Seq[Kernels.Kernel]): Map[String, Double] =
    ks.map(k => k.metric -> k.nsPerItem).toMap
}
