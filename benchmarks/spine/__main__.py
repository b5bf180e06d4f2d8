import sys

from benchmarks.spine.run import main

sys.exit(main())
