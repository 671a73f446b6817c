// Package cluster assembles the n-tier system under test: web, application,
// and database tiers of VM-hosted servers behind HAProxy-style balancers
// (paper Fig. 2b), the end-to-end request path for RUBBoS servlets, and the
// VM lifecycle used by the scaling frameworks — including the 15-second
// preparation period before a new VM serves traffic and connection draining
// when a VM retires (paper Section IV-A).
package cluster

import (
	"fmt"

	"conscale/internal/admission"
	"conscale/internal/des"
	"conscale/internal/lb"
	"conscale/internal/metrics"
	"conscale/internal/rng"
	"conscale/internal/rubbos"
	"conscale/internal/server"
	"conscale/internal/telemetry"
	"conscale/internal/trace"
)

// Tier identifies one of the three tiers.
type Tier int

// The tiers of the system. Cache is the optional Memcached tier the paper
// mentions as configurable on demand ("more tiers can be configured
// on-demand ... or cache tier like Memcached").
const (
	Web Tier = iota
	App
	DB
	Cache

	numTiers = iota
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case Web:
		return "web"
	case App:
		return "tomcat"
	case DB:
		return "mysql"
	case Cache:
		return "memcached"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Tiers lists all tiers in request-path order (including the optional
// cache tier; a cluster without caches simply has no servers there).
func Tiers() []Tier { return []Tier{Web, App, Cache, DB} }

// Config describes the initial deployment. The zero value is not valid;
// use DefaultConfig and override.
type Config struct {
	// Seed drives every stochastic choice the cluster makes.
	Seed uint64
	// Mix selects the RUBBoS interaction mix (browse-only or read/write).
	Mix rubbos.Mix
	// DatasetScale scales per-interaction service demands (1.0 = paper).
	DatasetScale float64

	// Initial topology #Web/#App/#DB (paper notation).
	Web, App, DB int

	// Soft resources: the paper's #Wthreads-#Athreads-#DBconnections
	// (e.g. 1000-60-40 in the Fig. 10 evaluation). DBConns is the DB
	// connection pool size of each app server.
	WebThreads, AppThreads, DBConns int

	// Cores per VM in each tier (the paper's VMs have 1 vCPU).
	WebCores, AppCores, DBCores int

	// DiskChans is the DB VM's disk channel count (1 = single SATA disk).
	DiskChans int

	// CacheServers enables the optional Memcached tier with that many
	// VMs (0 = no cache tier). With a cache, each DB query first looks
	// up the cache and only goes to the DB on a miss.
	CacheServers int
	// CacheHitRatio is the probability a lookup hits (default 0.8 when
	// the tier is enabled).
	CacheHitRatio float64
	// CacheCores is the cache VM's vCPU count (default 1).
	CacheCores int

	// MaxVMsPerTier bounds scale-out (the private cloud's capacity).
	MaxVMsPerTier int

	// LBPolicy picks which server in a tier receives each request.
	LBPolicy lb.Policy

	// PrepDelay is the VM preparation period before a new instance can
	// serve (dataset replication etc.; paper uses 15 s).
	PrepDelay des.Time

	// AcceptQueue is the per-server pending-request bound.
	AcceptQueue int

	// Admission optionally installs a per-tier admission policy: every
	// VM of a configured tier gets its own policy instance guarding its
	// accept queue (nil map or missing tier = admit everything on the
	// untouched request path). See internal/admission.
	Admission map[Tier]admission.Config

	// DemandCV is the lognormal jitter of service demands.
	DemandCV float64

	// Per-tier multithreading-overhead models. Apache's worker threads
	// are far lighter than Tomcat's or MySQL's (no business logic, no
	// locks), so the web tier gets a much higher knee.
	WebOverhead, AppOverhead, DBOverhead server.Overhead

	// Window is the fine-grained measurement interval (50 ms default).
	Window des.Time

	// Engine, when non-nil, hosts the cluster on an existing event engine
	// instead of a fresh one. The scale mode uses it to place each cell
	// on its own stripe shard (des.Striper); single-cluster runs leave it
	// nil and use Cluster.Eng as before.
	Engine *des.Engine
}

// DefaultConfig returns the paper's evaluation setup: 1/1/1 topology,
// soft resources 1000-60-40, 1-core VMs, leastconn balancing, 15 s VM
// preparation.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Mix:           rubbos.BrowseOnly,
		DatasetScale:  1,
		Web:           1,
		App:           1,
		DB:            1,
		WebThreads:    1000,
		AppThreads:    60,
		DBConns:       40,
		WebCores:      1,
		AppCores:      1,
		DBCores:       1,
		DiskChans:     1,
		MaxVMsPerTier: 8,
		LBPolicy:      lb.LeastConn,
		PrepDelay:     15 * des.Second,
		AcceptQueue:   3000,
		DemandCV:      0.3,
		WebOverhead:   server.Overhead{Alpha: 0.0005, KneePerCore: 1200, Power: 1.1},
		AppOverhead:   server.DefaultOverhead(),
		DBOverhead:    server.DefaultOverhead(),
	}
}

// vm couples a server with its lifecycle state.
type vm struct {
	srv   *server.Server
	ready bool // false until the preparation period elapses
}

// Cluster is the system under test.
type Cluster struct {
	// Eng is the discrete-event engine the cluster schedules on.
	Eng *des.Engine

	cfg Config
	rnd *rng.Source
	wl  *rubbos.Workload

	// progs holds wl's compiled visit programs, index-aligned with
	// wl.Servlets (see program); cacheCall is the Memcached lookup they
	// share. reqs recycles client requests, and toWeb is the bound event
	// handler that delivers one to the web balancer after a delayed
	// client -> web edge.
	progs     []*program
	cacheCall *server.OutCall
	reqs      server.RequestPool
	toWeb     func(arg any)

	webLB, appLB, dbLB, cacheLB *lb.Balancer

	vms     map[Tier][]*vm
	counter map[Tier]int

	// Current soft-resource settings; new VMs inherit them.
	webThreads, appThreads, dbConns int

	pendingBoots map[Tier]int // VMs in their preparation period

	// netDelay[t] is extra latency injected on the RPC edge into tier t
	// (network jitter between tiers; zero = healthy network).
	netDelay [numTiers]des.Time

	// bootFactor multiplies the VM preparation period (slow-booting
	// stragglers; 1 = nominal). Read when a boot starts.
	bootFactor float64

	// tracer samples requests into span trees (nil = tracing off; the
	// tracer draws from its own stream, so arming it never changes the
	// simulation's random sequence).
	tracer *trace.Tracer

	// telReg is the continuous-metrics registry (nil = telemetry off).
	// VMs booted after SetTelemetry are armed as they come up.
	telReg *telemetry.Registry

	// admission holds the active per-tier policy configs; VMs booted
	// later inherit them. onShed is the read-only shed observer fanned
	// out to every server (forensics tap).
	admission map[Tier]admission.Config
	onShed    func(now des.Time, t Tier, class admission.Class)
}

// New builds the initial topology on a fresh engine (or on cfg.Engine
// when set).
func New(cfg Config) *Cluster {
	if cfg.Web <= 0 || cfg.App <= 0 || cfg.DB <= 0 {
		panic("cluster: every tier needs at least one VM")
	}
	if cfg.DatasetScale <= 0 {
		cfg.DatasetScale = 1
	}
	eng := cfg.Engine
	if eng == nil {
		eng = des.New()
	}
	c := &Cluster{
		Eng:          eng,
		cfg:          cfg,
		rnd:          rng.New(cfg.Seed),
		wl:           rubbos.NewWorkload(cfg.Mix, cfg.DatasetScale),
		webLB:        lb.New("web-lb", cfg.LBPolicy),
		appLB:        lb.New("app-lb", cfg.LBPolicy),
		dbLB:         lb.New("db-lb", cfg.LBPolicy),
		cacheLB:      lb.New("cache-lb", cfg.LBPolicy),
		vms:          make(map[Tier][]*vm),
		counter:      make(map[Tier]int),
		webThreads:   cfg.WebThreads,
		appThreads:   cfg.AppThreads,
		dbConns:      cfg.DBConns,
		pendingBoots: make(map[Tier]int),
		bootFactor:   1,
		admission:    make(map[Tier]admission.Config),
	}
	for t, acfg := range cfg.Admission {
		if _, err := admission.New(acfg); err != nil {
			panic(fmt.Sprintf("cluster: tier %s: %v", t, err))
		}
		c.admission[t] = acfg
	}
	for i := 0; i < cfg.Web; i++ {
		c.boot(Web)
	}
	for i := 0; i < cfg.App; i++ {
		c.boot(App)
	}
	for i := 0; i < cfg.DB; i++ {
		c.boot(DB)
	}
	if cfg.CacheServers > 0 {
		if c.cfg.CacheHitRatio <= 0 || c.cfg.CacheHitRatio >= 1 {
			c.cfg.CacheHitRatio = 0.8
		}
		for i := 0; i < cfg.CacheServers; i++ {
			c.boot(Cache)
		}
	}
	c.toWeb = func(arg any) { c.webLB.Submit(arg.(*server.Request)) }
	c.cacheCall = c.compileCacheCall()
	c.progs = c.compile(c.wl)
	return c
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Workload returns the active servlet mix.
func (c *Cluster) Workload() *rubbos.Workload { return c.wl }

// SetDatasetScale changes the system state mid-run (the paper's
// "continuous dataset updates"): subsequent requests use demands for the
// new dataset size.
func (c *Cluster) SetDatasetScale(scale float64) {
	c.setWorkload(rubbos.NewWorkload(c.cfg.Mix, scale))
}

// SetMix switches the workload mode mid-run (paper Section III-C.3).
func (c *Cluster) SetMix(mix rubbos.Mix) {
	c.cfg.Mix = mix
	c.setWorkload(rubbos.NewWorkload(mix, c.wl.DatasetScale))
}

// setWorkload installs a workload and its program table. Requests in
// flight keep the programs — and through them the servlet demands — they
// were submitted with.
func (c *Cluster) setWorkload(wl *rubbos.Workload) {
	c.wl = wl
	c.progs = c.compile(wl)
}

// boot creates a VM immediately (initial topology, before the run starts).
func (c *Cluster) boot(t Tier) *vm {
	v := c.newVM(t)
	v.ready = true
	c.balancer(t).Add(v.srv.Name(), v.srv)
	return v
}

func (c *Cluster) newVM(t Tier) *vm {
	c.counter[t]++
	name := fmt.Sprintf("%s%d", t, c.counter[t])
	cfg := server.Config{
		Name:        name,
		AcceptQueue: c.cfg.AcceptQueue,
		DemandCV:    c.cfg.DemandCV,
		Window:      c.cfg.Window,
	}
	switch t {
	case Web:
		cfg.Cores = c.cfg.WebCores
		cfg.ThreadLimit = c.webThreads
		cfg.Overhead = c.cfg.WebOverhead
	case App:
		cfg.Cores = c.cfg.AppCores
		cfg.ThreadLimit = c.appThreads
		cfg.Overhead = c.cfg.AppOverhead
	case Cache:
		cores := c.cfg.CacheCores
		if cores <= 0 {
			cores = 1
		}
		cfg.Cores = cores
		// Memcached is event-driven: effectively unbounded worker slots
		// and negligible per-connection overhead.
		cfg.ThreadLimit = 2000
		cfg.Overhead = server.Overhead{Alpha: 0.0005, KneePerCore: 1500, Power: 1.1}
	case DB:
		cfg.Cores = c.cfg.DBCores
		cfg.DiskChans = c.cfg.DiskChans
		// MySQL's own thread table is effectively unbounded in the
		// paper's setup; its concurrency is governed by the app tier's
		// connection pools.
		cfg.ThreadLimit = 1000
		cfg.Overhead = c.cfg.DBOverhead
	}
	srv := server.New(c.Eng, c.rnd.Split(), cfg)
	if t == App {
		srv.SetCallPool(server.NewConnPool(c.dbConns))
	}
	if acfg, ok := c.admission[t]; ok {
		p, err := admission.New(acfg)
		if err != nil {
			panic(fmt.Sprintf("cluster: tier %s: %v", t, err))
		}
		srv.SetAdmission(p)
	}
	if c.onShed != nil {
		tier := t
		srv.SetShedObserver(func(now des.Time, class admission.Class) {
			c.onShed(now, tier, class)
		})
	}
	if c.telReg != nil {
		c.armServer(t, srv)
	}
	v := &vm{srv: srv}
	c.vms[t] = append(c.vms[t], v)
	return v
}

func (c *Cluster) balancer(t Tier) *lb.Balancer {
	switch t {
	case Web:
		return c.webLB
	case App:
		return c.appLB
	case Cache:
		return c.cacheLB
	default:
		return c.dbLB
	}
}

// Servers returns the tier's live servers (including booting and draining
// VMs, which still need metric collection).
func (c *Cluster) Servers(t Tier) []*server.Server {
	out := make([]*server.Server, 0, len(c.vms[t]))
	for _, v := range c.vms[t] {
		out = append(out, v.srv)
	}
	return out
}

// ReadyCount returns the number of VMs serving traffic in the tier.
func (c *Cluster) ReadyCount(t Tier) int {
	n := 0
	for _, v := range c.vms[t] {
		if v.ready && !v.srv.Draining() {
			n++
		}
	}
	return n
}

// TotalVMs returns the count of VMs across all tiers, including those
// still in their preparation period (they consume resources already) —
// the "# of VMs" series of Fig. 1/10/11.
func (c *Cluster) TotalVMs() int {
	n := 0
	for _, t := range Tiers() {
		for _, v := range c.vms[t] {
			if !v.srv.Draining() {
				n++
			}
		}
		n += c.pendingBoots[t]
	}
	return n
}

// AddVM provisions a new VM in the tier. The VM becomes ready after the
// preparation period (PrepDelay); onReady (optional) fires at that moment
// with the new server. It returns false when the tier is at capacity.
func (c *Cluster) AddVM(t Tier, onReady func(srv *server.Server)) bool {
	live := 0
	for _, v := range c.vms[t] {
		if !v.srv.Draining() {
			live++
		}
	}
	if live+c.pendingBoots[t] >= c.cfg.MaxVMsPerTier {
		return false
	}
	prep := c.cfg.PrepDelay
	if c.bootFactor != 1 {
		prep = des.Time(float64(prep) * c.bootFactor)
	}
	c.pendingBoots[t]++
	c.Eng.After(prep, func() {
		c.pendingBoots[t]--
		v := c.newVM(t)
		v.ready = true
		c.balancer(t).Add(v.srv.Name(), v.srv)
		if onReady != nil {
			onReady(v.srv)
		}
	})
	return true
}

// RemoveVM retires the most recently added ready VM of the tier, keeping
// at least one. The VM drains: it stops receiving traffic immediately and
// is destroyed once idle. It returns the retired server name, or "".
func (c *Cluster) RemoveVM(t Tier) string {
	vmsOfTier := c.vms[t]
	live := 0
	for _, v := range vmsOfTier {
		if v.ready && !v.srv.Draining() {
			live++
		}
	}
	if live <= 1 {
		return ""
	}
	for i := len(vmsOfTier) - 1; i >= 0; i-- {
		v := vmsOfTier[i]
		if !v.ready || v.srv.Draining() {
			continue
		}
		v.srv.SetDraining(true)
		c.balancer(t).Remove(v.srv.Name())
		c.reap(t, v)
		return v.srv.Name()
	}
	return ""
}

// reap destroys a draining VM once its in-flight work completes.
func (c *Cluster) reap(t Tier, v *vm) {
	c.Eng.After(des.Second, func() {
		if v.srv.Active() > 0 || v.srv.QueueLen() > 0 {
			c.reap(t, v)
			return
		}
		for i, cand := range c.vms[t] {
			if cand == v {
				c.vms[t] = append(c.vms[t][:i], c.vms[t][i+1:]...)
				break
			}
		}
	})
}

// SoftResources returns the current settings (web threads, app threads,
// per-app DB connections).
func (c *Cluster) SoftResources() (web, app, db int) {
	return c.webThreads, c.appThreads, c.dbConns
}

// SetWebThreads adjusts the web tier's thread pools at runtime.
func (c *Cluster) SetWebThreads(n int) {
	c.webThreads = n
	for _, v := range c.vms[Web] {
		v.srv.SetThreadLimit(n)
	}
}

// SetAppThreads adjusts the app tier's thread pools at runtime (the
// Tomcat thread pool actuator).
func (c *Cluster) SetAppThreads(n int) {
	c.appThreads = n
	for _, v := range c.vms[App] {
		v.srv.SetThreadLimit(n)
	}
}

// SetDBConns adjusts every app server's DB connection pool (the extended
// JMX actuator of Section IV-A); this caps the concurrency reaching the
// DB tier at n × #app.
func (c *Cluster) SetDBConns(n int) {
	c.dbConns = n
	for _, v := range c.vms[App] {
		if p := v.srv.CallPool(); p != nil {
			p.SetLimit(n)
		}
	}
}

// SetAdmission installs (cfg non-nil) or removes (cfg nil) the tier's
// admission policy at runtime: every current VM gets a fresh policy
// instance and future VMs inherit the config. The mgmt admission.*
// toggles route here.
func (c *Cluster) SetAdmission(t Tier, cfg *admission.Config) error {
	if cfg == nil {
		delete(c.admission, t)
		for _, v := range c.vms[t] {
			v.srv.SetAdmission(nil)
		}
		return nil
	}
	if _, err := admission.New(*cfg); err != nil {
		return err
	}
	c.admission[t] = *cfg
	for _, v := range c.vms[t] {
		p, err := admission.New(*cfg)
		if err != nil {
			return err
		}
		v.srv.SetAdmission(p)
		if c.telReg != nil {
			// Re-arm so the shed instruments exist (registration is
			// idempotent on name+labels).
			c.armServer(t, v.srv)
		}
	}
	return nil
}

// AdmissionConfig returns the tier's active admission config and
// whether one is installed.
func (c *Cluster) AdmissionConfig(t Tier) (admission.Config, bool) {
	cfg, ok := c.admission[t]
	return cfg, ok
}

// SetShedObserver installs a read-only callback invoked on every
// admission shed anywhere in the cluster (the forensics tap); nil
// disarms it for future VMs.
func (c *Cluster) SetShedObserver(fn func(now des.Time, t Tier, class admission.Class)) {
	c.onShed = fn
	for _, t := range Tiers() {
		tier := t
		for _, v := range c.vms[t] {
			if fn == nil {
				v.srv.SetShedObserver(nil)
				continue
			}
			v.srv.SetShedObserver(func(now des.Time, class admission.Class) {
				fn(now, tier, class)
			})
		}
	}
}

// TierSheds returns the tier's admission drops per class, summed over
// its VMs (including drained and crashed ones).
func (c *Cluster) TierSheds(t Tier) (perClass [admission.NumClasses]uint64) {
	for _, v := range c.vms[t] {
		for cl := 0; cl < admission.NumClasses; cl++ {
			perClass[cl] += v.srv.ShedCount(admission.Class(cl))
		}
	}
	return perClass
}

// Sheds returns the cluster-wide admission drop count.
func (c *Cluster) Sheds() uint64 {
	var total uint64
	for _, t := range Tiers() {
		for _, v := range c.vms[t] {
			total += v.srv.ShedTotal()
		}
	}
	return total
}

// TierCPU returns the mean 1-second CPU utilization across the tier's
// ready VMs — the signal the threshold scalers act on.
func (c *Cluster) TierCPU(t Tier) float64 {
	sum, n := 0.0, 0
	for _, v := range c.vms[t] {
		if v.ready && !v.srv.Draining() {
			sum += v.srv.CPUUtilization()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CollectInto flushes every server's fine-grained and CPU metrics into the
// warehouse (the per-VM monitoring agents of Fig. 8, step 1).
func (c *Cluster) CollectInto(w *metrics.Warehouse) {
	for _, t := range Tiers() {
		for _, v := range c.vms[t] {
			name := v.srv.Name()
			w.PutFine(name, v.srv.FlushFine())
			w.PutCPU(name, v.srv.FlushCPU())
		}
	}
}

// SetTracer arms per-request tracing on the cluster (nil disarms). The
// root span of each sampled request doubles as its web-tier visit span.
func (c *Cluster) SetTracer(t *trace.Tracer) { c.tracer = t }

// Tracer returns the armed tracer (nil when tracing is off).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// Submit issues one end-to-end client request (a workload.Submitter).
func (c *Cluster) Submit(done func(ok bool)) {
	p := c.progs[c.wl.PickIndex(c.rnd)]
	p.sync()
	now := c.Eng.Now()
	req := c.reqs.Get()
	req.Phases = p.web
	req.Done = done
	req.Span = c.tracer.StartRequest(p.sv.Name, now)
	req.Class = p.class
	req.PushDone(clientDone, c)
	if d := c.netDelay[Web]; d > 0 {
		// Jitter on the client->web edge: the request transits the slow
		// network before reaching the web balancer.
		req.Span.AddSeg(trace.SegNet, now, now+d)
		c.Eng.AfterArg(d, c.toWeb, req)
		return
	}
	c.webLB.Submit(req)
}

// clientDone is the completion handler under every client request: it
// closes a sampled request's trace and recycles the request, after which
// the caller's done runs.
func clientDone(arg any, req *server.Request, ok bool) {
	c := arg.(*Cluster)
	if req.Span != nil {
		c.tracer.EndRequest(req.Span, c.Eng.Now(), ok)
	}
	c.reqs.Put(req)
}

// KillVM abruptly terminates a tier's most recently added ready VM
// (failure injection): the balancer stops routing to it immediately, its
// queued and in-flight requests fail, and the VM is removed. It returns
// the killed server's name, or "" when the tier has no ready VM to kill
// (the last instance may be killed — unlike RemoveVM, crashes don't ask
// for permission).
func (c *Cluster) KillVM(t Tier) string {
	vmsOfTier := c.vms[t]
	for i := len(vmsOfTier) - 1; i >= 0; i-- {
		v := vmsOfTier[i]
		if !v.ready || v.srv.Draining() {
			continue
		}
		c.balancer(t).Remove(v.srv.Name())
		v.srv.Kill()
		c.vms[t] = append(c.vms[t][:i], c.vms[t][i+1:]...)
		return v.srv.Name()
	}
	return ""
}

// KillVMIndex abruptly terminates the idx-th ready VM of the tier
// (0-based, in boot order) — the targeted form of KillVM for fault
// injection. It returns the killed server's name, or "" when idx does not
// address a ready, non-draining VM.
func (c *Cluster) KillVMIndex(t Tier, idx int) string {
	if idx < 0 {
		return ""
	}
	n := 0
	for i, v := range c.vms[t] {
		if !v.ready || v.srv.Draining() {
			continue
		}
		if n == idx {
			c.balancer(t).Remove(v.srv.Name())
			v.srv.Kill()
			c.vms[t] = append(c.vms[t][:i], c.vms[t][i+1:]...)
			return v.srv.Name()
		}
		n++
	}
	return ""
}

// TierOccupancy sums the accept-queue depth and the in-service request
// count across the tier's ready servers — the flight-recorder snapshot
// read. It allocates nothing, unlike ReadyServers.
func (c *Cluster) TierOccupancy(t Tier) (queue, active int) {
	for _, v := range c.vms[t] {
		if v.ready && !v.srv.Draining() {
			queue += v.srv.QueueLen()
			active += v.srv.Active()
		}
	}
	return queue, active
}

// ReadyServers returns the tier's servers currently serving traffic
// (ready and not draining), in boot order — the candidate set fault
// injection targets.
func (c *Cluster) ReadyServers(t Tier) []*server.Server {
	var out []*server.Server
	for _, v := range c.vms[t] {
		if v.ready && !v.srv.Draining() {
			out = append(out, v.srv)
		}
	}
	return out
}

// SetNetDelay sets the injected latency of the RPC edge into the tier
// (client->web for Web, web->app for App, app->db for DB, app->cache for
// Cache). The delay dwells on the calling side, holding the caller's
// thread like any network wait in the thread-based RPC model; it applies
// to calls issued after it is set. Zero restores a healthy edge.
func (c *Cluster) SetNetDelay(t Tier, d des.Time) {
	if d < 0 {
		d = 0
	}
	c.netDelay[t] = d
}

// NetDelay returns the currently injected latency on the edge into the tier.
func (c *Cluster) NetDelay(t Tier) des.Time { return c.netDelay[t] }

// SetBootFactor multiplies the VM preparation period for boots started
// while it is in effect (slow-booting stragglers: congested image store,
// oversubscribed host). Must be positive; 1 restores the nominal period.
// Boots already in progress keep their original deadline.
func (c *Cluster) SetBootFactor(f float64) {
	if f <= 0 {
		panic("cluster: non-positive boot factor")
	}
	c.bootFactor = f
}

// BootFactor returns the current VM-preparation multiplier (1 = nominal).
func (c *Cluster) BootFactor() float64 { return c.bootFactor }

// Balancer exposes a tier's balancer (tests, diagnostics).
func (c *Cluster) Balancer(t Tier) *lb.Balancer { return c.balancer(t) }
