# Renders the README's results section from a full set:
#   awk -f benchmark/results/tables.awk benchmark/results/first-set.txt
# Per-layer drives run in every workload's traced run, so a set holds five
# samples of each; the tables show their median.

function note(key,    i, kv) {
    for (i = 1; i <= NF; i++) {
        split($i, kv, "=")
        if (kv[1] == key) return kv[2]
    }
    return ""
}

function median(name,    n, i, j, t, a) {
    n = count[name]
    for (i = 1; i <= n; i++) a[i] = sample[name, i]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}

/^# host nproc/ { host = substr($0, 8) }

/^# cell / {
    cellrate[note("workload"), note("cell")] = note("ops_per_s")
    cellops[note("cell")] = note("ops")
}

/^# ratio / { ratio[note("workload")] = note("l2_misses_per_op") }

!/^[#{]/ && NF >= 4 {
    w = note("workload")
    if (!(w in seen)) { seen[w] = 1; order[++workloads] = w }
    value[w, $1] = $3
    sample[$1, ++count[$1]] = $3
    if ($1 == "sim_ops_per_s") { passes[w] = note("n"); pass_median[w] = note("pass_median") }
    if ($1 == "min_cell_ops_per_s") slowest[w] = note("cell")
    if ($1 ~ /\.ns(_per_op)?$/ && !($1 in listed)) { listed[$1] = 1; drives[++ndrives] = $1 }
}

END {
    printf "Host: %s. Rates are simulated ops per host second.\n\n", host
    print "| workload | passes | `sim_ops_per_s` | pass-median rate | `min_cell_ops_per_s` (cell) | `peak_rss_mib` | `accuracy_mare` | `setup_s` |"
    print "|---|---|---|---|---|---|---|---|"
    for (i = 1; i <= workloads; i++) {
        w = order[i]
        printf "| `%s` | %d | %.3g | %.3g | %.3g (`%s`) | %.1f | %.4f | %.2f |\n", w, passes[w], \
            value[w, "sim_ops_per_s"], pass_median[w], value[w, "min_cell_ops_per_s"], slowest[w], \
            value[w, "peak_rss_mib"], value[w, "accuracy_mare"], value[w, "setup_s"]
    }

    print "\nScheduling policies, one Ocean sweep on simos-mipsy-150/flashlite (`machine.sched.*`):\n"
    print "| policy | 16 nodes | 64 nodes |"
    print "|---|---|---|"
    split("reference batched parallel_w1 parallel_wN", policy, " ")
    for (i = 1; i <= 4; i++)
        printf "| `%s` | %.3g | %.3g |\n", policy[i], \
            median("machine.sched.ocean16." policy[i] ".ops_per_s"), \
            median("machine.sched.ocean64." policy[i] ".ops_per_s")
    printf "\nInside the 64-node `parallel_wN` run: %d fork rounds admitting %d ops (%d rejected at the horizon, %d as predicted-shared); workers %.0f %% executing, %.0f %% idle; one fork/join round of empty jobs costs %.1f µs (`w1`) / %.1f µs (`wN`).\n", \
        median("machine.fork.rounds"), median("machine.fork.admitted_ops"), \
        median("machine.fork.rejected_horizon"), median("machine.fork.rejected_shared"), \
        100 * median("engine.pool.execute.frac"), 100 * median("engine.pool.idle.frac"), \
        median("engine.pool.forkjoin.w1.ns") / 1000, median("engine.pool.forkjoin.wN.ns") / 1000

    print "\nObservers on lu at 16 nodes (`machine.observe.*`), and the same four cells in two workloads:\n"
    print "| observers | ops/s |"
    print "|---|---|"
    printf "| detached | %.3g |\n", median("machine.observe.detached.ops_per_s")
    printf "| telemetry + profiler | %.3g |\n", median("machine.observe.telemetry_profile.ops_per_s")
    printf "| telemetry + profiler + sampled spans | %.3g |\n", median("machine.observe.all.ops_per_s")
    printf "| `machine.observe.all.overhead_frac` | %.2f |\n", median("machine.observe.all.overhead_frac")
    ops = 0; bare = 0; observed = 0
    for (key in cellrate) {
        split(key, part, SUBSEP)
        if (part[1] != "mp16-observed") continue
        ops += cellops[part[2]]
        observed += cellops[part[2]] / cellrate[key]
        bare += cellops[part[2]] / cellrate["mp16-grid", part[2]]
    }
    printf "| lu/ocean × {hardware, simos-mipsy} inside `mp16-grid` | %.3g |\n", ops / bare
    printf "| the same cells as `mp16-observed` | %.3g |\n", ops / observed

    print "\nWhat each workload stresses (traced run):\n"
    print "| workload | L2 misses / op | `est.isa` | `est.cpu` | `est.mem` | `est.memsys` | `est.residual` | `machine.host.drive.frac` | `trace.overhead_frac` |"
    print "|---|---|---|---|---|---|---|---|---|"
    for (i = 1; i <= workloads; i++) {
        w = order[i]
        printf "| `%s` | %.4f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %+.3f |\n", w, ratio[w], \
            value[w, "est.isa.frac"], value[w, "est.cpu.frac"], value[w, "est.mem.frac"], \
            value[w, "est.memsys.frac"], value[w, "est.residual.frac"], \
            value[w, "machine.host.drive.frac"], \
            value[w, "trace.overhead_frac"]
    }

    print "\nPer-layer unit costs, host ns per call:\n"
    print "| drive | ns |"
    print "|---|---|"
    for (i = 1; i <= ndrives; i++) printf "| `%s` | %.1f |\n", drives[i], median(drives[i])
}
