// The elastic-churn leg: every kind of v5 membership change in a single run
// over real TCP, composed with the crash-only server. See runElasticChurn.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/tensor"
)

// runElasticChurn is the elastic-membership leg: v5 join, clean leave, a
// killed-and-rejoined client, and a server crash-restart — all in one run
// over real TCP, while tasks keep progressing. The server opens with a
// fresh cohort one seat short of the job's seat space (the -min-cohort
// shape) and a seat-book cap at the full space (-max-cohort). The script:
//
//  1. After the first commit a seatless client enrolls through the join
//     handshake; the server assigns it the open seat and replies with a
//     catch-up. Until the join lands the kill proxy holds seat 0's link, so
//     seat 0 has not even seen the first task start: the task cannot close
//     before the join, however fast the other founder trains.
//  2. At the next commit of the same task — with the joiner in the grown
//     seat book — the server itself is killed and a replacement restores
//     from its newest durable snapshot on the same address: the v3 cut must
//     carry the *dynamic* book, so the joiner rejoins its assigned seat
//     like any founder. (The ordering is structural, not timed: a clean
//     leave can only fire after its task completes, which happens on the
//     restored server, so the crash never races the retirement.)
//  3. One founder retires its seat with a clean Leave after reporting its
//     first task.
//  4. At the first commit of the next task the other founder's connection
//     is killed and healed through the ordinary rejoin path. The proxy holds
//     the redial until the server has evicted the old link: a rejoin the
//     server sees first claims a seat that is still alive, and is refused.
//
// The bar: the run completes every task while the cohort changes under it
// and the books show exactly the scripted churn — the leave is a retirement
// (never an eviction or a death), the kill is exactly one eviction healed
// by a rejoin, nothing is refused, and the final seat book holds the joiner
// and the rejoined founder alive with the leaver retired.
func runElasticChurn(cfg fed.Config, numClients, numTasks int, cluster *device.Cluster,
	seqs [][]data.ClientTask, build func(*tensor.RNG) *model.Model, factory fed.Factory) {
	fmt.Println("\n=== wire run with elastic churn: join, leave, kill-and-rejoin, server crash (async scheduler) ===")
	acfg := cfg
	acfg.DropoutProb = 0
	acfg.Scheduler = fed.SchedulerAsync
	acfg.Async = fed.AsyncConfig{CommitEvery: 1, StalenessAlpha: 0.5}
	aprint := acfg.Fingerprint("CIFAR100", "SixCNN",
		fmt.Sprint(numClients), fmt.Sprint(numTasks))

	founders := numClients - 1 // the last seat stays open for the mid-run joiner
	victim, leaver := 0, 1
	dir, err := os.MkdirTemp("", "fedknow-churn-snap-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.OpenStore(dir, 2, aprint)
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	addr := ln.Addr().String()
	proxy, err := newKillProxy(addr)
	if err != nil {
		fail(err)
	}
	defer proxy.Close()
	fmt.Printf("server on %s: %d founders (seat %d through kill proxy %s), seat book capped at %d, snapshots in %s\n",
		addr, founders, victim, proxy.addr(), numClients, dir)

	joinNow := make(chan struct{}) // closed at the first commit: enroll the joiner
	joined := make(chan struct{})  // closed once the join handshake lands
	var wg sync.WaitGroup
	for id := 0; id < founders; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := fed.NewWireClient(acfg, id, numClients, cluster.Devices[id%cluster.Size()],
				seqs[id], build, factory)
			// The leaver departs the elastic way: a Leave frame after its
			// first task's report, not a dropped connection. Every client
			// runs under the reconnect loop — the server crash severs all
			// links, and the whole cohort must redial the replacement.
			if id == leaver {
				c.SetLeaveAfterTask(0)
			}
			dial := addr
			if id == victim {
				dial = proxy.addr()
			}
			err := c.RunReconnect(context.Background(), fed.Reconnect{
				Addr: dial, Fingerprint: aprint, Attempts: 400,
				BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
			})
			if err != nil {
				fail(fmt.Errorf("reconnecting founder %d: %w", id, err))
			}
		}(id)
	}
	// The joiner: no seat, no shard — until the server's seat-assignment
	// hello tells it which seat (and therefore which deterministic shard and
	// model) it is. It then resumes from the catch-up like a rejoined client,
	// and heals the later server crash through the same reconnect loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-joinNow
		t, seat, cu, err := fed.DialJoinWith(addr, aprint, fed.WireOptions{})
		if err != nil {
			fail(fmt.Errorf("join handshake: %w", err))
		}
		if seat != founders {
			fail(fmt.Errorf("server assigned seat %d to the joiner, want the open seat %d", seat, founders))
		}
		fmt.Printf("  >> joiner admitted as seat %d (catch-up: task %d, v%d)\n",
			seat, cu.TaskIdx+1, cu.Version)
		close(joined)
		c := fed.NewWireClient(acfg, seat, numClients, cluster.Devices[seat%cluster.Size()],
			seqs[seat], build, factory)
		if err := c.ResumeReconnect(context.Background(), fed.Reconnect{
			Addr: addr, Fingerprint: aprint, Attempts: 400,
			BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
		}, t, cu); err != nil {
			fail(fmt.Errorf("joined seat %d: %w", seat, err))
		}
	}()

	// Incarnation one: a partial fresh cohort, the listener held open for
	// join and rejoin hellos, snapshots on, killed mid-task once the joiner
	// is in the book.
	links, err := fed.ServeWith(ln, founders, aprint, fed.WireOptions{})
	if err != nil {
		fail(err)
	}
	proxy.Hold(joined)
	scfg := acfg.ServerConfigFor(founders, numTasks)
	scfg.MaxCohort = numClients
	srv := fed.NewServer(scfg, nil, links)
	if err := srv.Accept(ln, aprint, fed.WireOptions{}); err != nil {
		fail(err)
	}
	srv.SetSnapshots(store)
	crashCtx, crash := context.WithCancel(context.Background())
	var open, kill sync.Once
	srv.SetObserver(fed.ObserverFuncs{
		Round: func(s fed.RoundStats) {
			if s.Participants > 0 {
				open.Do(func() {
					fmt.Printf("  >> run is live (commit v%d): enrolling the joiner\n", s.Version)
					close(joinNow)
				})
			}
			select {
			case <-joined:
			default:
				return
			}
			if s.TaskIdx == 0 && s.Participants > 0 {
				kill.Do(func() {
					fmt.Printf("  >> killing the server after commit v%d, with the joiner in the book\n", s.Version)
					crash()
				})
			}
		},
		Task: printTask,
	})
	if _, err := srv.Run(crashCtx); err == nil {
		fail(fmt.Errorf("killed run completed instead of returning its cancellation"))
	}

	// Incarnation two: rebind the same address the cohort is redialing,
	// restore the grown seat book from the cut, and run to completion —
	// through the leave and the victim's kill.
	var ln2 net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("rebinding %s: %w", addr, err))
		}
	}
	store2, err := checkpoint.OpenStore(dir, 2, aprint)
	if err != nil {
		fail(err)
	}
	snap, err := store2.Load()
	if err != nil {
		fail(fmt.Errorf("loading the crash cut: %w", err))
	}
	if snap == nil {
		fail(fmt.Errorf("no snapshot on disk after the kill"))
	}
	if got := len(snap.Seats); got != numClients {
		fail(fmt.Errorf("the crash cut carries %d seats, want the grown book of %d (the join must survive the crash)",
			got, numClients))
	}
	fmt.Printf("  >> restored snapshot %d: %d seats in the book, resuming at task %d/%d, v%d\n",
		snap.Seq, len(snap.Seats), snap.TaskIdx+1, numTasks, snap.Version)
	lostLink := make(chan struct{}) // closed once the server evicts the victim's killed link
	var evict sync.Once
	scfg.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		log.Print(line)
		if strings.HasPrefix(line, fmt.Sprintf("fed: async: evicted client %d ", victim)) {
			evict.Do(func() { close(lostLink) })
		}
	}
	srv2, err := fed.NewServerFromSnapshot(scfg, nil, snap)
	if err != nil {
		fail(fmt.Errorf("restore: %w", err))
	}
	if err := srv2.Accept(ln2, aprint, fed.WireOptions{}); err != nil {
		fail(err)
	}
	srv2.SetSnapshots(store2)
	var kill2 sync.Once
	srv2.SetObserver(fed.ObserverFuncs{
		Round: func(s fed.RoundStats) {
			// The client-side churn: sever the victim's connection early in
			// a later task (it still owes uploads, so the eviction is always
			// healed by its rejoin before the run can end).
			if s.TaskIdx >= 1 && s.Participants > 0 {
				kill2.Do(func() {
					fmt.Printf("  >> killing seat %d's connection after commit v%d of task %d\n",
						victim, s.Version, s.TaskIdx+1)
					proxy.Hold(lostLink)
					proxy.Kill()
				})
			}
		},
		Task: printTask,
	})
	res, err := srv2.Run(context.Background())
	if err != nil {
		fail(fmt.Errorf("restored server must survive the churn: %w", err))
	}
	wg.Wait()

	// The elastic acceptance bar: every task finished while the cohort
	// changed, and the books show exactly the scripted churn.
	if len(res.PerTask) != numTasks {
		fail(fmt.Errorf("run finished %d of %d tasks under churn", len(res.PerTask), numTasks))
	}
	for i, tp := range res.PerTask {
		if tp.TaskIdx != i {
			fail(fmt.Errorf("task point %d reports task %d: duplicated or skipped across the restart", i, tp.TaskIdx))
		}
		if tp.AvgAccuracy <= 0 {
			fail(fmt.Errorf("task %d has no recorded accuracy", i+1))
		}
	}
	if alive := srv2.AliveClients(); alive != numClients-1 {
		fail(fmt.Errorf("%d seats alive at the end, want %d (joiner + rejoined founder, leaver retired)",
			alive, numClients-1))
	}
	if len(res.DeadAfter) != 0 {
		fail(fmt.Errorf("DeadAfter = %v, want empty: the leave must retire the seat and the kill must heal", res.DeadAfter))
	}
	_, _, evicted, refused := srv2.Rejections()
	if refused != 0 {
		fail(fmt.Errorf("%d membership handshakes refused, want 0", refused))
	}
	if evicted != 1 {
		fail(fmt.Errorf("%d evictions, want exactly 1 (the killed connection; the leave must not count)", evicted))
	}
	sent, recv := srv2.WireTraffic()
	fmt.Printf("cohort grew %d→%d, survived a server crash, shrank to %d, healed a kill, and completed all %d tasks\n",
		founders, numClients, numClients-1, numTasks)
	fmt.Printf("measured wire traffic incl. retired and joined links: %.2f MB sent, %.2f MB received\n",
		float64(sent)/(1<<20), float64(recv)/(1<<20))
}
