from . import main

raise SystemExit(main())
