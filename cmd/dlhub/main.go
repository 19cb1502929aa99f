// Command dlhub is the Git-like CLI of §IV-E, with commands for
// "initializing a DLHub servable in a local directory, publishing the
// servable to DLHub, creating metadata using the toolbox, and invoking
// the published servable with input data":
//
//	dlhub init -name my-model -title "My model" -author "Doe, Jane" \
//	    -type python_function -entry mymodule:predict
//	dlhub update -description "better docs"
//	dlhub publish
//	dlhub run anonymous/my-model '"some input"'
//	dlhub ls
//	dlhub search "formation energy"
//	dlhub status <task-id>
//
// The server is selected with -server or the DLHUB_SERVER environment
// variable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"repro/dlhub"
	"repro/internal/schema"
	"repro/internal/servable"
)

const stateDir = ".dlhub"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "init":
		err = cmdInit(args)
	case "update":
		err = cmdUpdate(args)
	case "publish":
		err = cmdPublish(args)
	case "run":
		err = cmdRun(args)
	case "ls":
		err = cmdLs(args)
	case "search":
		err = cmdSearch(args)
	case "status":
		err = cmdStatus(args)
	case "autoscale":
		err = cmdAutoscale(args)
	case "tm":
		err = cmdTM(args)
	case "tenant":
		err = cmdTenant(args)
	case "register":
		err = cmdRegister(args)
	case "login":
		err = cmdLogin(args)
	case "logout":
		err = cmdLogout(args)
	case "whoami":
		err = cmdWhoami(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dlhub: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlhub %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dlhub <command> [flags]

commands:
  init     initialize a servable in the current directory (.dlhub/)
  update   modify the local servable metadata
  publish  push the local servable to DLHub
  run      invoke a published servable with JSON input
  ls       list servables tracked in this directory
  search   search the model repository
  status   check an asynchronous task
  autoscale  view or set a servable's replica autoscaling policy
  tm       task manager lifecycle: ls | drain | rejoin | deregister | undeploy
  tenant   multi-tenant QoS: ls | set-quota
  register create an account on a server running with -auth
  login    obtain a bearer token and store it in ~/.dlhub/token
  logout   revoke the stored token and forget it
  whoami   show the identity and tenant the server resolves for the token`)
}

func client(fs *flag.FlagSet) *dlhub.Client {
	server := fs.Lookup("server").Value.String()
	token := os.Getenv("DLHUB_TOKEN")
	if token == "" {
		token = loadToken()
	}
	return dlhub.NewClient(server, token)
}

// tokenPath is where `dlhub login` keeps the bearer token: DLHUB_TOKEN
// overrides it per-invocation, DLHUB_TOKEN_FILE relocates it (tests,
// multiple accounts).
func tokenPath() string {
	if p := os.Getenv("DLHUB_TOKEN_FILE"); p != "" {
		return p
	}
	home, err := os.UserHomeDir()
	if err != nil {
		return ""
	}
	return filepath.Join(home, ".dlhub", "token")
}

func loadToken() string {
	p := tokenPath()
	if p == "" {
		return ""
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

func saveToken(token string) error {
	p := tokenPath()
	if p == "" {
		return fmt.Errorf("cannot resolve a token path (no home directory; set DLHUB_TOKEN_FILE)")
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o700); err != nil {
		return err
	}
	return os.WriteFile(p, []byte(token+"\n"), 0o600)
}

func serverFlag(fs *flag.FlagSet) {
	def := os.Getenv("DLHUB_SERVER")
	if def == "" {
		def = "http://localhost:8080"
	}
	fs.String("server", def, "Management Service URL")
}

// localState is the .dlhub/metadata.json + published-ID tracking.
type localState struct {
	Document  schema.Document `json:"document"`
	Published []string        `json:"published,omitempty"`
}

func loadState() (*localState, error) {
	data, err := os.ReadFile(filepath.Join(stateDir, "metadata.json"))
	if err != nil {
		return nil, fmt.Errorf("no servable here — run `dlhub init` first (%w)", err)
	}
	var st localState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func saveState(st *localState) error {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(stateDir, "metadata.json"), data, 0o644)
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	name := fs.String("name", "", "servable name (required)")
	title := fs.String("title", "", "human title (required)")
	author := fs.String("author", "", "author, repeatable via commas (required)")
	typ := fs.String("type", "python_function", "model type: keras|tensorflow|sklearn|python_function|pipeline")
	entry := fs.String("entry", "", `entry "module:function" for python_function`)
	fs.Parse(args) //nolint:errcheck

	doc := schema.Document{
		Publication: schema.Publication{
			Name:    *name,
			Title:   *title,
			Authors: splitNonEmpty(*author),
		},
		Servable: schema.Servable{
			Type:   schema.ModelType(*typ),
			Entry:  *entry,
			Input:  schema.DataType{Kind: "string"},
			Output: schema.DataType{Kind: "string"},
		},
	}
	if err := schema.Validate(&doc); err != nil {
		return err
	}
	if err := saveState(&localState{Document: doc}); err != nil {
		return err
	}
	fmt.Printf("initialized servable %q in %s/\n", *name, stateDir)
	return nil
}

func cmdUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	description := fs.String("description", "", "new description")
	visibleTo := fs.String("visible-to", "", "comma-separated ACL principals")
	citation := fs.String("citation", "", "citation text")
	fs.Parse(args) //nolint:errcheck

	st, err := loadState()
	if err != nil {
		return err
	}
	if *description != "" {
		st.Document.Publication.Description = *description
	}
	if *visibleTo != "" {
		st.Document.Publication.VisibleTo = splitNonEmpty(*visibleTo)
	}
	if *citation != "" {
		st.Document.Publication.Citation = *citation
	}
	if err := schema.Validate(&st.Document); err != nil {
		return err
	}
	if err := saveState(st); err != nil {
		return err
	}
	fmt.Println("metadata updated")
	return nil
}

func cmdPublish(args []string) error {
	fs := flag.NewFlagSet("publish", flag.ExitOnError)
	serverFlag(fs)
	deploy := fs.Int("deploy", 0, "also deploy N replicas after publishing")
	fs.Parse(args) //nolint:errcheck

	st, err := loadState()
	if err != nil {
		return err
	}
	// Gather model components from .dlhub/components/.
	components := map[string][]byte{}
	compDir := filepath.Join(stateDir, "components")
	entries, _ := os.ReadDir(compDir)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(compDir, e.Name()))
		if err != nil {
			return err
		}
		components[e.Name()] = data
	}
	servable.RegisterBuiltins()

	c := client(fs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	id, err := c.Publish(ctx, &st.Document, components)
	if err != nil {
		return err
	}
	st.Published = appendUnique(st.Published, id)
	if err := saveState(st); err != nil {
		return err
	}
	fmt.Printf("published %s\n", id)
	if *deploy > 0 {
		if err := c.Deploy(ctx, id, *deploy, ""); err != nil {
			return err
		}
		fmt.Printf("deployed %d replica(s)\n", *deploy)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	serverFlag(fs)
	async := fs.Bool("async", false, "submit asynchronously and print the task ID")
	timeout := fs.Duration("timeout", 0, "bound the invocation (0 = server default); Ctrl-C always cancels server-side")
	idemKey := fs.String("idempotency-key", "", "execute at most once under this key (enables automatic retries)")
	fs.Parse(args) //nolint:errcheck
	rest := fs.Args()
	if len(rest) < 2 {
		return fmt.Errorf("usage: dlhub run [flags] <owner/name> <json-input>")
	}
	id := rest[0]
	var input any
	if err := json.Unmarshal([]byte(rest[1]), &input); err != nil {
		return fmt.Errorf("input must be JSON: %w", err)
	}
	// Ctrl-C cancels the request context; the server aborts the
	// dispatch and frees its routing slot instead of computing for a
	// client that already left.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c := client(fs)
	if *async {
		taskID, err := c.RunAsyncWith(ctx, id, input, dlhub.RunConfig{IdempotencyKey: *idemKey})
		if err != nil {
			return err
		}
		fmt.Println(taskID)
		return nil
	}
	res, err := c.RunWith(ctx, id, input, dlhub.RunConfig{IdempotencyKey: *idemKey})
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(res.Output, "", "  ")
	fmt.Println(string(out))
	fmt.Fprintf(os.Stderr, "request=%.2fms invocation=%.2fms inference=%.2fms cached=%v\n",
		float64(res.RequestMicros)/1000, float64(res.InvocationMicros)/1000,
		float64(res.InferenceMicros)/1000, res.Cached)
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck
	st, err := loadState()
	if err != nil {
		return err
	}
	fmt.Printf("local servable: %s (%s)\n", st.Document.Publication.Name, st.Document.Servable.Type)
	for _, id := range st.Published {
		fmt.Printf("published: %s\n", id)
	}
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	serverFlag(fs)
	limit := fs.Int("limit", 10, "maximum results")
	fs.Parse(args) //nolint:errcheck
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: dlhub search [flags] <query>")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := client(fs).Search(ctx, fs.Arg(0), dlhub.SearchOptions{Limit: *limit})
	if err != nil {
		return err
	}
	fmt.Printf("%d result(s)\n", res.Total)
	for i, id := range res.IDs {
		title, _ := res.Docs[i]["title"].(string)
		fmt.Printf("  %-40s %s\n", id, title)
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	serverFlag(fs)
	wait := fs.Duration("wait", 0, "wait until done or this timeout (streams task events)")
	follow := fs.Bool("follow", false, "stream task events until completion (no timeout)")
	fs.Parse(args) //nolint:errcheck
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: dlhub status [flags] <task-id>")
	}
	c := client(fs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var (
		st  *dlhub.TaskStatus
		err error
	)
	switch {
	case *follow:
		st, err = c.StreamTask(ctx, fs.Arg(0), func(ev dlhub.TaskEvent) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", ev.Type, ev.Task.Status)
		})
	case *wait > 0:
		waitCtx, cancel := context.WithTimeout(ctx, *wait)
		defer cancel()
		st, err = c.WaitTask(waitCtx, fs.Arg(0))
	default:
		st, err = c.Status(ctx, fs.Arg(0))
	}
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(out))
	return nil
}

func cmdAutoscale(args []string) error {
	fs := flag.NewFlagSet("autoscale", flag.ExitOnError)
	serverFlag(fs)
	enable := fs.Bool("enable", false, "enable autoscaling for the servable")
	disable := fs.Bool("disable", false, "disable autoscaling (policy stays visible in stats)")
	minR := fs.Int("min", 1, "minimum replicas")
	maxR := fs.Int("max", 32, "maximum replicas")
	target := fs.Float64("target-load", 2, "per-replica demand the controller steers toward")
	upCooldown := fs.Duration("up-cooldown", 0, "minimum gap between scale-ups (default 1s)")
	downCooldown := fs.Duration("down-cooldown", 0, "how long demand must stay low before scaling down (default 30s)")
	maxQueue := fs.Int("max-queue", 0, "admission-control bound: reject runs (429) beyond this pending depth (0 = server default, <0 = off)")
	executorRoute := fs.String("executor", "", `executor route to scale (default "parsl")`)
	fs.Parse(args) //nolint:errcheck
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: dlhub autoscale [flags] <owner/name>")
	}
	id := fs.Arg(0)
	c := client(fs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var (
		st  *dlhub.AutoscaleStatus
		err error
	)
	if *enable || *disable {
		if *enable && *disable {
			return fmt.Errorf("-enable and -disable are mutually exclusive")
		}
		st, err = c.SetAutoscale(ctx, id, dlhub.AutoscalePolicy{
			Enabled:           *enable,
			MinReplicas:       *minR,
			MaxReplicas:       *maxR,
			TargetLoad:        *target,
			ScaleUpCooldown:   *upCooldown,
			ScaleDownCooldown: *downCooldown,
			MaxQueue:          *maxQueue,
			Executor:          *executorRoute,
		})
	} else {
		st, err = c.Autoscale(ctx, id)
	}
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(out))
	return nil
}

// cmdTM is the Task Manager lifecycle surface:
//
//	dlhub tm ls                              fleet view (live/draining/load)
//	dlhub tm drain <tm-id>                   drain a TM; placements migrate
//	dlhub tm rejoin <tm-id>                  return a drained TM to rotation
//	dlhub tm deregister <tm-id>              remove a (drained) TM
//	dlhub tm undeploy <owner/name> <tm-id>   drop one placement of a servable
func cmdTM(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: dlhub tm <ls|drain|rejoin|deregister|undeploy> [flags] [args]")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("tm "+sub, flag.ExitOnError)
	serverFlag(fs)
	fs.Parse(rest) //nolint:errcheck
	c := client(fs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch sub {
	case "ls":
		info, err := c.TaskManagerInfo(ctx)
		if err != nil {
			return err
		}
		out, _ := json.MarshalIndent(info, "", "  ")
		fmt.Println(string(out))
		return nil
	case "drain":
		if fs.NArg() < 1 {
			return fmt.Errorf("usage: dlhub tm drain [flags] <tm-id>")
		}
		res, err := c.DrainTM(ctx, fs.Arg(0))
		if err != nil {
			return err
		}
		out, _ := json.MarshalIndent(res, "", "  ")
		fmt.Println(string(out))
		return nil
	case "rejoin":
		if fs.NArg() < 1 {
			return fmt.Errorf("usage: dlhub tm rejoin [flags] <tm-id>")
		}
		if err := c.RejoinTM(ctx, fs.Arg(0)); err != nil {
			return err
		}
		fmt.Printf("rejoined %s\n", fs.Arg(0))
		return nil
	case "deregister":
		if fs.NArg() < 1 {
			return fmt.Errorf("usage: dlhub tm deregister [flags] <tm-id>")
		}
		if err := c.DeregisterTM(ctx, fs.Arg(0)); err != nil {
			return err
		}
		fmt.Printf("deregistered %s\n", fs.Arg(0))
		return nil
	case "undeploy":
		if fs.NArg() < 2 {
			return fmt.Errorf("usage: dlhub tm undeploy [flags] <owner/name> <tm-id>")
		}
		if err := c.Undeploy(ctx, fs.Arg(0), fs.Arg(1)); err != nil {
			return err
		}
		placed, err := c.Placements(ctx, fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Printf("undeployed %s from %s; placements now %v\n", fs.Arg(0), fs.Arg(1), placed)
		return nil
	default:
		return fmt.Errorf("unknown tm subcommand %q (want ls|drain|rejoin|deregister|undeploy)", sub)
	}
}

// cmdTenant is the multi-tenant QoS surface:
//
//	dlhub tenant ls                          list tenants + quotas
//	dlhub tenant set-quota [flags] <tenant>  install a quota spec
func cmdTenant(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: dlhub tenant <ls|set-quota> [flags] [args]")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("tenant "+sub, flag.ExitOnError)
	serverFlag(fs)
	maxInFlight := fs.Int("max-in-flight", 0, "cap the tenant's concurrent runs across all servables (0 = unlimited)")
	rate := fs.Float64("rate", 0, "sustained request rate in req/s, one-second burst (0 = unlimited)")
	priority := fs.String("priority", "", "priority class weighting the tenant's dequeue share: high|normal|low (default normal)")
	fs.Parse(rest) //nolint:errcheck
	c := client(fs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch sub {
	case "ls":
		tenants, err := c.Tenants(ctx)
		if err != nil {
			return err
		}
		// DURABLE says whether the quota is WAL-backed (explicitly set on
		// a server running with -data-dir) or evaporates on restart.
		fmt.Printf("%-20s %-8s %-12s %-10s %-7s %s\n", "TENANT", "PRIO", "MAX-IN-FLT", "RATE/S", "WEIGHT", "DURABLE")
		for _, t := range tenants {
			rate := "-"
			if t.RatePerSec > 0 {
				rate = fmt.Sprintf("%g", t.RatePerSec)
			}
			mif := "-"
			if t.MaxInFlight > 0 {
				mif = fmt.Sprintf("%d", t.MaxInFlight)
			}
			fmt.Printf("%-20s %-8s %-12s %-10s %-7d %v\n", t.ID, t.Priority, mif, rate, t.Weight, t.Durable)
		}
		return nil
	case "set-quota":
		if fs.NArg() < 1 {
			return fmt.Errorf("usage: dlhub tenant set-quota [flags] <tenant-id>")
		}
		view, err := c.SetTenantQuota(ctx, fs.Arg(0), dlhub.TenantQuota{
			MaxInFlight: *maxInFlight,
			RatePerSec:  *rate,
			Priority:    *priority,
		})
		if err != nil {
			return err
		}
		out, _ := json.MarshalIndent(view, "", "  ")
		fmt.Println(string(out))
		return nil
	default:
		return fmt.Errorf("unknown tenant subcommand %q (want ls|set-quota)", sub)
	}
}

// password resolves the secret for register/login: the -password flag,
// else the DLHUB_PASSWORD environment variable (keeps secrets out of
// shell history and `ps` output in scripts).
func password(flagValue string) (string, error) {
	if flagValue != "" {
		return flagValue, nil
	}
	if pw := os.Getenv("DLHUB_PASSWORD"); pw != "" {
		return pw, nil
	}
	return "", fmt.Errorf("no password: pass -password or set DLHUB_PASSWORD")
}

func cmdRegister(args []string) error {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	serverFlag(fs)
	user := fs.String("user", "", "username (required)")
	pw := fs.String("password", "", "password (or set DLHUB_PASSWORD)")
	provider := fs.String("provider", "", "identity provider (default: the server's)")
	name := fs.String("name", "", "full name")
	email := fs.String("email", "", "email address")
	tenant := fs.String("tenant", "", "bind the new identity to this tenant")
	fs.Parse(args) //nolint:errcheck
	if *user == "" {
		return fmt.Errorf("usage: dlhub register -user <name> [-password ...] [-tenant ...]")
	}
	secret, err := password(*pw)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	identityID, err := client(fs).Register(ctx, dlhub.RegisterRequest{
		Provider: *provider,
		Username: *user,
		Password: secret,
		Name:     *name,
		Email:    *email,
		Tenant:   *tenant,
	})
	if err != nil {
		return err
	}
	fmt.Printf("registered %s\n", identityID)
	if *tenant != "" {
		fmt.Printf("bound to tenant %s\n", *tenant)
	}
	return nil
}

func cmdLogin(args []string) error {
	fs := flag.NewFlagSet("login", flag.ExitOnError)
	serverFlag(fs)
	user := fs.String("user", "", "username (required)")
	pw := fs.String("password", "", "password (or set DLHUB_PASSWORD)")
	provider := fs.String("provider", "", "identity provider (default: the server's)")
	fs.Parse(args) //nolint:errcheck
	if *user == "" {
		return fmt.Errorf("usage: dlhub login -user <name> [-password ...]")
	}
	secret, err := password(*pw)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := client(fs).Login(ctx, *provider, *user, secret)
	if err != nil {
		return err
	}
	if err := saveToken(res.AccessToken); err != nil {
		return fmt.Errorf("token obtained but not saved: %w", err)
	}
	fmt.Printf("logged in as %s (token in %s, expires %s)\n",
		res.IdentityID, tokenPath(), res.ExpiresAt.Format("2006-01-02 15:04:05"))
	if res.Tenant != "" {
		fmt.Printf("tenant: %s\n", res.Tenant)
	}
	return nil
}

func cmdLogout(args []string) error {
	fs := flag.NewFlagSet("logout", flag.ExitOnError)
	serverFlag(fs)
	fs.Parse(args) //nolint:errcheck
	c := client(fs)
	if c.Token == "" {
		fmt.Println("no stored token")
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Best effort: the token may already be expired or the server down;
	// forgetting the local copy is the part that must not fail silently.
	if err := c.Revoke(ctx, ""); err != nil {
		fmt.Fprintf(os.Stderr, "revoke failed (forgetting the token anyway): %v\n", err)
	}
	if p := tokenPath(); p != "" {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	fmt.Println("logged out")
	return nil
}

func cmdWhoami(args []string) error {
	fs := flag.NewFlagSet("whoami", flag.ExitOnError)
	serverFlag(fs)
	fs.Parse(args) //nolint:errcheck
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	id, err := client(fs).Whoami(ctx)
	if err != nil {
		return err
	}
	out, _ := json.MarshalIndent(id, "", "  ")
	fmt.Println(string(out))
	return nil
}

func splitNonEmpty(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if part := s[start:i]; part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	return out
}

func appendUnique(list []string, v string) []string {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}
