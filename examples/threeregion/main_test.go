package main

// Example runs the program, so `go test` checks its output byte for byte.
func Example() {
	main()
	// Output:
	// running the three-region scenario under Policy 1 (sensible routing) ...
	// === figure4 — Policy 1 (sensible routing) ===
	// RMTTF per region (s)
	//    3.6e+03 |+
	//            |
	//            | +
	//            |*
	//            | *
	//            |  +
	//            |   +                                                  *
	//            |    ++*             +++++*******              ++     * ******
	//            |      +++**      +++   * +++++++*****     ++++  ++++++++++++++**      ++
	//            |    o    +++*++++******         +++++++*++* ****              ++++++++**
	//            |   o oooo   +o     ooooo  ooooo ooooo  +oo *ooo oooo oooooooo    ooo
	//        342 |ooo      oooo ooooo     oo     o     ooo  oo   o    o        oooo   oooo
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region2 o=region3   (y: seconds)
	// workload fraction f_i per region
	//      0.518 |
	//            |++                                         +                          ++
	//            |  +       **     +++++++ *  *****      *  + ++++     ****   ****     +
	//            |********** +   ++       ++**     ******  +      ++++*    ***   ++   +
	//            |   ++++++++ *++***     *  + ++++      +++        ***+    ++++++  +++***
	//            |            +     *****    +    ++++++  ****  ***    ++++              *
	//            |                                            **
	//            |            oo                          oo                        oo
	//            |    oo oo     ooo  oooo   oo    oooooo      ooo oooo       o     o
	//            |   o  o  oo      oo    o    oooo      oo  o    o    ooooooo oo  o   oo o
	//            |           o            oo                 o                  oo      o
	//     0.0806 |ooo
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region2 o=region3   (y: fraction)
	// client response time (s)
	//      0.295 |                                          *
	//            |
	//            |               **
	//            |          *      *                   **                      *      * *
	//            |         * ** *                     *  *                    *
	//            |                        *               *     *                      *
	//            |             *                           * *                   ** *
	//            |                  *            ** **                          *  * *   *
	//            |  * *****          *****     **  *          ** ******  *****
	//        0.1 |** *                     ****                        **
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=all_clients   (y: seconds)
	// summary: converged=false spread=0.637 fractionOsc=0.0501 meanRT=0.163s slaViol=0.0120 successRatio=0.9787
	//
	// running the three-region scenario under Policy 2 (available resources) ...
	// === figure4 — Policy 2 (available resources) ===
	// RMTTF per region (s)
	//    3.6e+03 |+
	//            |     o
	//            |    o o
	//            |*+
	//            | *                  oo
	//            |  +    o     o
	//            |   o        o         o
	//            |   +*         o           **oo                       **
	//            |     * +++     o  ++   o** o*+o+             ooo    *  ooo+        o
	//            |  o +++*o ++  ++++**+++++++++ *oo++oo   ++ooo+*+oo+++oo+**ooooooooo+oo++
	//            |         o  ++*    o     oo      oo *ooooo    +   ooo+                oo
	//        456 |oo        oo    ooo     o
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region2 o=region3   (y: seconds)
	// workload fraction f_i per region
	//      0.682 |                                                       *
	//            |                            **           +++          *
	//            | +++**            +++      *  *         +   ++     + *  *              +
	//            |+     *    *     +   +  ++     * ****         ++ ++      *         ++++
	//            |          ++*         ++  *     *    *++        +   +     *+++***++
	//            |****+  * +  ++  +**      *+     ++  ++**                  +   +++ *
	//            |     +  +     oo*  *   o*  +   +  ++    **  *****    +   +         *****
	//            |      +oo      *    * o      ++           **     ***  + +
	//            |         o   o  o    o**    +                          +
	//            |      o                 o     oo               oooo                 ooo
	//            |o    o    o o    o  o    ooooo  oooooooo     oo    ooo  oooooooooooo   o
	//    0.00844 | oooo      o      oo                    ooooo         oo
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region2 o=region3   (y: fraction)
	// client response time (s)
	//      0.417 |            *
	//            |
	//            |
	//            |
	//            |                                      *
	//            |                                     *
	//            |          *                        **
	//            |        *  * *  **                *    *    **                  ***    *
	//            |   ***** *    **  ********   *****      ****  *******  *********   ****
	//        0.1 |***                       ***                        **
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=all_clients   (y: seconds)
	// summary: converged=true spread=0.025 fractionOsc=0.0786 meanRT=0.167s slaViol=0.0090 successRatio=0.9839
	//
	// running the three-region scenario under Policy 3 (exploration) ...
	// === figure4 — Policy 3 (exploration) ===
	// RMTTF per region (s)
	//    3.6e+03 |+
	//            |
	//            | +
	//            |*
	//            |    o
	//            | *+
	//            |  *o o                                     o
	//            |   +              o    **o*                 *
	//            |    ++o++        o+o+++ o o++++           o+o++++ooo++++               *
	//            |        *oooo   ++**  oo++ ooooo+o*oo   ++*  o  o ++ooooo++oooooo++++ooo
	//            |  o    oo  *+o++o*  oo          o+o++oo+**    oo         oo   ***oooo
	//        446 |oo            oo                       ooo
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region2 o=region3   (y: seconds)
	// workload fraction f_i per region
	//      0.628 |                                                                     +
	//            |                          ***                                       + +
	//            |                    ++++**   **          ++        ****           ++   +
	//            |++++    ***     ++++           *****    +  +   ++**    * +++++++++
	//            |*      *++ ****+*       +     ++++  *   **  +++* ++    ++******
	//            |    +**+  +++++  *   ***     +    ++ *++  *        ++++        *       *
	//            |     ++           ***    ++++       ++     *                    ****
	//            |    ooo                             ooo                             ***
	//            |       o    oo     o                   o                        oo
	//            |          oo  o  oo                o       ooo                 o  oo
	//            |o       oo     oo   ooo  ooo   oooo     o o   oooooooo  ooooooo     oooo
	//     0.0119 | ooo                   oo   ooo          o            oo
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region2 o=region3   (y: fraction)
	// client response time (s)
	//      0.353 |                                      *
	//            |
	//            |
	//            |                                   *
	//            |              *                     **
	//            |          * *  *
	//            |           * *                    *     **             * *    *
	//            |      * **      *           ******     *              * * **** ******
	//            |     * *         *  **** ***               *  **  ****               ***
	//        0.1 |*****             **    *                 * **  **
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=all_clients   (y: seconds)
	// summary: converged=true spread=0.069 fractionOsc=0.0586 meanRT=0.165s slaViol=0.0091 successRatio=0.9911
	//
	// === policy comparison (Figure 4) ===
	// policy     converged    spread    convTime fOscillation  meanRT(s)    slaViol    rejuv  crashes
	// policy1           no     0.637       never       0.0501      0.163     0.0120      152       14
	// policy2          yes     0.025       4140s       0.0786      0.167     0.0090       96        3
	// policy3          yes     0.069         n/a       0.0586      0.165     0.0091       95        3
	// qualitative claims of Section VI-B:
	//   [ok  ] Policy 1 does not converge (heterogeneous regions)
	//   [ok  ] Policy 2 converges
	//   [ok  ] Policy 3 converges
	//   [ok  ] Policy 2 shows the tightest RMTTF convergence
	//   [ok  ] Policy 2 converges at least as fast as Policy 3
	//   [ok  ] mean response time below the 1 s SLA for all policies
	// cross-region forwarding (redirection overhead):
	//   Policy 1 (sensible routing)      25.1% of requests forwarded between regions
	//   Policy 2 (available resources)   33.5% of requests forwarded between regions
	//   Policy 3 (exploration)           31.3% of requests forwarded between regions
}
