// Bank: the paper's §5 micro-benchmark as a runnable demo. A cluster of
// replicas concurrently transfers money between accounts in two contention
// regimes, printing live throughput, abort rates and lease behaviour — the
// dynamics behind Figure 3.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	alc "github.com/alcstm/alc"
)

func main() {
	var (
		replicas = flag.Int("replicas", 3, "cluster size")
		conflict = flag.Bool("conflict", false, "high-conflict mode: all replicas hit the same accounts")
		seconds  = flag.Int("seconds", 3, "run duration")
		protocol = flag.String("protocol", "alc", "alc or cert")
	)
	flag.Parse()

	proto := alc.ALC
	if *protocol == "cert" {
		proto = alc.CERT
	}
	cluster, err := alc.NewCluster(alc.Config{
		Replicas: *replicas,
		Protocol: proto,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// numReplicas·2 accounts, as in the paper.
	const initial = 1000
	accounts := *replicas * 2
	seed := make(map[string]alc.Value, accounts)
	for i := 0; i < accounts; i++ {
		seed[acct(i)] = initial
	}
	if err := cluster.Seed(seed); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("bank: %d replicas, %s, %s mode\n", *replicas, proto, mode(*conflict))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < *replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := cluster.Replica(i)
			src, dst := acct(2*i), acct(2*i+1)
			if *conflict {
				src, dst = acct(0), acct(1)
			}
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				from, to := src, dst
				if round%2 == 1 {
					from, to = to, from
				}
				err := r.Atomic(func(tx *alc.Tx) error {
					f, err := tx.ReadInt(from)
					if err != nil {
						return err
					}
					t, err := tx.ReadInt(to)
					if err != nil {
						return err
					}
					if err := tx.Write(from, f-1); err != nil {
						return err
					}
					return tx.Write(to, t+1)
				})
				if err != nil {
					log.Printf("replica %d: %v", i, err)
					return
				}
			}
		}(i)
	}

	// Live stats once per second.
	var lastCommits int64
	for s := 0; s < *seconds; s++ {
		time.Sleep(time.Second)
		st := cluster.Stats()
		fmt.Printf("  t=%ds  %6d commits/s  abort %4.1f%%  lease reuse %d, handoffs %d\n",
			s+1, st.Commits-lastCommits, 100*st.AbortRate(), st.LeaseReuses, st.LeaseHandoffs)
		lastCommits = st.Commits
	}
	close(stop)
	wg.Wait()

	// Audit: money is conserved on every replica.
	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *replicas; i++ {
		total := 0
		err := cluster.Replica(i).AtomicRO(func(tx *alc.Tx) error {
			for a := 0; a < accounts; a++ {
				v, err := tx.ReadInt(acct(a))
				if err != nil {
					return err
				}
				total += v
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		if total != accounts*initial {
			log.Fatalf("replica %d: invariant violated: total %d != %d", i, total, accounts*initial)
		}
	}
	fmt.Printf("invariant holds on all %d replicas: total balance %d\n", *replicas, accounts*initial)
}

func acct(i int) string { return fmt.Sprintf("acct:%03d", i) }

func mode(conflict bool) string {
	if conflict {
		return "high-conflict"
	}
	return "no-conflict"
}
